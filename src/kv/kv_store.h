/**
 * @file
 * Crash-recoverable key-value store on NvAlloc (DESIGN.md §13).
 *
 * The persistent format is a chained hash table whose every mutation
 * rides the allocator's transaction layer (tx.h), so each insert,
 * update and erase is all-or-nothing across {record block, index
 * slot}:
 *
 *   rootWord(root_index) ──► KvSuper ──► bucket table (2^shift words)
 *                                             │
 *                                bucket[b] ──► record ─► record ─► 0
 *
 * A record is one allocator block: a 24-byte header (chain link,
 * lengths, CRC-32C over lengths+key+value) followed by the key and
 * value bytes. Small records come from slabs, large values from
 * extents — the allocator's size-class machinery decides, which is
 * exactly the small+large mix the paper's workloads stress.
 *
 * Concurrency: the bucket array is striped over VLocks; *readers take
 * the stripe lock too*. That is deliberate — an erase frees the record
 * into the hardening quarantine at commit, so a lock-free reader could
 * hold a pointer into poison-filled memory and trip the quarantine's
 * use-after-free detector with a false positive. With readers
 * excluded for the (virtual-time-modelled) critical section, a freed
 * record is unreachable before it is ever poisoned.
 *
 * Nothing volatile is required for correctness: open() walks every
 * chain once to rebuild the cached index (per-bucket chain lengths and
 * the record/byte gauges) and to validate headers and checksums, and
 * the tx layer has already resolved any in-flight mutation
 * all-or-nothing before the walk starts.
 *
 * The chain walk is sliced. The bucket table is cut into contiguous
 * slices, one per worker, with min(the CPUs in the calling thread's
 * affinity mask, 8, buckets / 4096) workers and at least one
 * (walkers()), so a pinned process starts no walker it cannot run.
 * Worker 0 is the calling thread, and a slice whose thread cannot be
 * started is walked by the caller. A worker writes chain_len_ only for
 * its own buckets and tallies records, key and value bytes and corrupt
 * records locally; the caller adds the tallies into the stats after
 * the join, so the totals and every stats.kv.* leaf equal a serial
 * walk's. At open nothing else can reach the table yet, so a
 * rebuilding worker reads bucket words without locks and prefetches
 * the head record of the bucket 16 slots ahead. verify() runs on the
 * same walker but takes each bucket's stripe lock and reads no bucket
 * word outside it, so it does not prefetch.
 */

#ifndef NVALLOC_KV_KV_STORE_H
#define NVALLOC_KV_KV_STORE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nvalloc/kv_stats.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/vlock.h"

namespace nvalloc {

/** KV operation outcome. Maps onto the C veneer's errno family in
 *  kv_c.h; HeapUnhealthy deliberately surfaces as EINVAL there (an op
 *  on a quarantined tenant is a caller error, not new corruption). */
enum class KvStatus : uint8_t
{
    Ok = 0,
    NotFound,      //!< key absent (get/erase/rmw)
    Corrupt,       //!< record or index failed validation; contained
    OutOfMemory,   //!< txAlloc failed (heap exhausted)
    QuotaExceeded, //!< txAlloc refused by the tenant's capacity quota
    HeapUnhealthy, //!< backing heap degraded/quarantined; op refused
    TooLarge,      //!< key or value exceeds the format limits
    Invalid,       //!< bad argument, or heap without a tx layer (GC)
};

const char *kvStatusName(KvStatus s);

struct KvOptions
{
    /** Bucket count; rounded up to a power of two. */
    uint64_t buckets = uint64_t{1} << 16;
    /** Which NvAlloc root word anchors the store. */
    unsigned root_index = 0;
    /** Create a fresh store when the root word is empty. */
    bool create = true;
};

class KvStore
{
  public:
    static constexpr size_t kMaxKeyLen = 1024;
    static constexpr size_t kMaxValueLen = size_t{4} << 20;
    /** Bytes before the key: next(8) + vlen(4) + klen(2) + flags(2) +
     *  crc(4) + pad(4). */
    static constexpr size_t kRecordHeader = 24;

    /**
     * Open (attach or create) the store anchored at
     * heap.rootWord(opt.root_index). Returns null on failure with
     * *why (when given) set to: Invalid (GC-variant heap — the store
     * requires the tx layer — or root word in use by something that
     * fails super validation), Corrupt (super block unreadable),
     * NotFound (empty root and !opt.create), OutOfMemory /
     * QuotaExceeded / HeapUnhealthy (creation tx failed).
     *
     * On success the store's KvStats block is attached to the heap
     * (stats.kv.* ctl subtree) until destruction.
     */
    static std::unique_ptr<KvStore> open(NvAlloc &heap,
                                         const KvOptions &opt = {},
                                         KvStatus *why = nullptr);

    ~KvStore();

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    // ---- operations -------------------------------------------------

    /** Insert or replace. A replace frees the old record (through the
     *  delayed-reuse quarantine), unlinks it and links the new record
     *  at the bucket head — all in one transaction. */
    KvStatus put(ThreadCtx &ctx, std::string_view key,
                 std::string_view value);

    /** Point lookup. Validates the matched record's checksum; a
     *  mismatch returns Corrupt (counted, sibling keys unaffected). */
    KvStatus get(std::string_view key, std::string *out);

    KvStatus erase(ThreadCtx &ctx, std::string_view key);

    /**
     * Read-modify-write under the bucket lock: fn(old) -> new value,
     * where old is the current value ("" when absent — absent keys are
     * upserted, matching YCSB F). fn runs with the stripe lock held;
     * it must not reenter the store.
     */
    KvStatus rmw(ThreadCtx &ctx, std::string_view key,
                 const std::function<std::string(std::string_view)> &fn);

    /**
     * Hash-order scan: collect up to `n` records walking buckets
     * cyclically from start_key's bucket. Hash tables have no key
     * order, so like every KV-on-hash YCSB port this approximates
     * range scans by bucket adjacency (documented in DESIGN.md §13).
     * Corrupt records are counted and skipped, never returned.
     */
    KvStatus scan(std::string_view start_key, unsigned n,
                  std::vector<std::pair<std::string, std::string>> *out);

    /** Full-store walk validating every record checksum; Ok or
     *  Corrupt. The fsck analogue for the KV layer. */
    KvStatus verify();

    /** Chain-walk workers for a table of `buckets` buckets: min(the
     *  CPUs in the calling thread's sched_getaffinity mask, 8,
     *  buckets / 4096), at least one. A failed query counts as one
     *  CPU. */
    static uint64_t walkers(uint64_t buckets);

    // ---- introspection ----------------------------------------------

    uint64_t count() const;
    uint64_t buckets() const { return buckets_; }
    NvAlloc &heap() { return heap_; }
    const KvStats &stats() const { return stats_; }
    /** Longest current chain (volatile index; racy snapshot). Not a
     *  counter, so not in the stats.kv.* ctl subtree. */
    uint64_t maxChain() const;

    /** Device offset of key's record (0 if absent / invalid): the
     *  chaos harness uses it to aim corruption at live payload. */
    uint64_t recordOffset(std::string_view key);

    /** Device offset of key's bucket head word (chaos hook: the
     *  kv-stomp class smashes it and expects containment). */
    uint64_t
    bucketWordOffset(std::string_view key) const
    {
        return table_off_ + bucketOf(key) * 8;
    }

  private:
    struct FindResult
    {
        uint64_t off = 0;          //!< matching record, 0 if absent
        uint64_t *pred_link = nullptr; //!< word holding `off`
        bool corrupt = false;      //!< chain walk hit a bad record
    };

    /** What a chain walk over some buckets found. */
    struct WalkTally
    {
        uint64_t records = 0;
        uint64_t key_bytes = 0;
        uint64_t value_bytes = 0;
        uint64_t corrupt = 0;
    };

    /** Rebuild: lock-free, prefetching, fills chain_len_ (open only).
     *  Verify: each bucket under its stripe lock. */
    enum class WalkMode : uint8_t
    {
        Rebuild,
        Verify,
    };

    KvStore(NvAlloc &heap, unsigned root_index);

    KvStatus create(const KvOptions &opt);
    KvStatus attach(uint64_t super_off);
    KvStatus rebuild();

    /** Walk every chain, one contiguous slice of buckets per worker
     *  (file comment), and return the summed tallies. */
    WalkTally walkChains(WalkMode mode);
    WalkTally walkSlice(uint64_t first, uint64_t end, WalkMode mode);

    uint64_t bucketOf(std::string_view key) const;
    VLock &stripeOf(uint64_t bucket);
    uint64_t *bucketWord(uint64_t bucket);

    /** Header/bounds sanity for a chain offset; does not touch the
     *  checksum (that costs a payload walk and is done on match). */
    bool recordSane(uint64_t off) const;
    bool recordCrcOk(uint64_t off) const;
    static uint32_t recordCrc(uint16_t klen, uint32_t vlen,
                              std::string_view key,
                              std::string_view value);

    FindResult findLocked(uint64_t bucket, std::string_view key);
    KvStatus putLocked(ThreadCtx &ctx, uint64_t bucket,
                       std::string_view key, std::string_view value);
    KvStatus refuse();
    KvStatus mapAllocFailure();

    NvAlloc &heap_;
    const unsigned root_index_;
    uint64_t table_off_ = 0;
    uint64_t buckets_ = 0;
    uint64_t bucket_mask_ = 0;

    static constexpr unsigned kStripes = 64;
    std::vector<VLock> stripes_{kStripes};
    /** Volatile cached index: per-bucket chain length, rebuilt on
     *  open, maintained under the stripe locks. */
    std::vector<uint32_t> chain_len_;

    KvStats stats_;
};

} // namespace nvalloc

#endif // NVALLOC_KV_KV_STORE_H
