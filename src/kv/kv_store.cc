#include "kv/kv_store.h"

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/checksum.h"
#include "pm/pm_device.h"

namespace nvalloc {

namespace {

constexpr uint64_t kKvMagic = 0x31564b564c4c414eULL; // "NALLVKV1"
constexpr uint32_t kKvVersion = 1;
/** Chain-walk step bound: a corrupted next link forming a cycle must
 *  terminate the walk as a detection, not a hang. */
constexpr uint64_t kMaxChainSteps = uint64_t{1} << 20;
/** Chain-walk workers: at most this many, and one per this many
 *  buckets, so a small table is walked by the caller alone. */
constexpr uint64_t kMaxWalkers = 8;
constexpr uint64_t kBucketsPerWalker = 4096;
/** A rebuilding worker prefetches the head record of the bucket this
 *  many slots ahead, so one chain's miss overlaps the walk of the
 *  chains before it. */
constexpr uint64_t kPrefetchAhead = 16;

/** On-device store anchor, reached from rootWord(root_index). The crc
 *  covers every field above it so a torn or stomped super reads as
 *  Corrupt instead of as a wild bucket table. */
struct KvSuper
{
    uint64_t magic;
    uint32_t version;
    uint32_t bucket_shift;
    uint64_t table_off;
    uint32_t crc;
    uint32_t pad;
};
static_assert(sizeof(KvSuper) == 32, "super layout is persistent ABI");

/** Record header; key bytes then value bytes follow. `next` is
 *  excluded from the crc on purpose: unlinking a *successor* rewrites
 *  it via txWrite, and re-checksumming a neighbour inside that tx
 *  would turn every erase into a rewrite of the whole chain. */
struct RecordHeader
{
    uint64_t next;
    uint32_t vlen;
    uint16_t klen;
    uint16_t flags;
    uint32_t crc;
    uint32_t pad;
};
static_assert(sizeof(RecordHeader) == KvStore::kRecordHeader,
              "record layout is persistent ABI");

uint32_t
superCrc(const KvSuper &s)
{
    return crc32(&s, offsetof(KvSuper, crc));
}

/** FNV-1a; stable across runs so bucket placement is part of the
 *  persistent format's contract. */
uint64_t
hashKey(std::string_view key)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
bump(std::atomic<uint64_t> &a, uint64_t n = 1)
{
    a.fetch_add(n, std::memory_order_relaxed);
}

void
drop(std::atomic<uint64_t> &a, uint64_t n = 1)
{
    a.fetch_sub(n, std::memory_order_relaxed);
}

/** Scoped attach for the creation transaction: open() has no caller
 *  ThreadCtx, every later op does. */
struct ScopedThread
{
    NvAlloc &heap;
    ThreadCtx *ctx;
    explicit ScopedThread(NvAlloc &h) : heap(h), ctx(h.attachThread())
    {
    }
    ~ScopedThread()
    {
        if (ctx)
            heap.detachThread(ctx);
    }
};

} // namespace

const char *
kvStatusName(KvStatus s)
{
    switch (s) {
    case KvStatus::Ok: return "ok";
    case KvStatus::NotFound: return "not-found";
    case KvStatus::Corrupt: return "corrupt";
    case KvStatus::OutOfMemory: return "out-of-memory";
    case KvStatus::QuotaExceeded: return "quota-exceeded";
    case KvStatus::HeapUnhealthy: return "heap-unhealthy";
    case KvStatus::TooLarge: return "too-large";
    case KvStatus::Invalid: return "invalid";
    }
    return "?";
}

KvStore::KvStore(NvAlloc &heap, unsigned root_index)
    : heap_(heap), root_index_(root_index)
{
}

KvStore::~KvStore()
{
    heap_.detachKvStats(&stats_);
}

std::unique_ptr<KvStore>
KvStore::open(NvAlloc &heap, const KvOptions &opt, KvStatus *why)
{
    auto fail = [why](KvStatus s) {
        if (why)
            *why = s;
        return std::unique_ptr<KvStore>();
    };
    // The store *is* the tx layer's application: every mutation must
    // be journaled, so the GC variant (which has no WAL) cannot host
    // one.
    if (heap.config().consistency != Consistency::Log)
        return fail(KvStatus::Invalid);
    if (opt.root_index >= kNumGcRoots)
        return fail(KvStatus::Invalid);

    std::unique_ptr<KvStore> store(new KvStore(heap, opt.root_index));
    uint64_t root = *heap.rootWord(opt.root_index);
    KvStatus s;
    if (root == 0) {
        if (!opt.create)
            return fail(KvStatus::NotFound);
        s = store->create(opt);
    } else {
        s = store->attach(root);
    }
    if (s != KvStatus::Ok)
        return fail(s);
    store->stats_.buckets.store(store->buckets_,
                                std::memory_order_relaxed);
    heap.attachKvStats(&store->stats_);
    if (why)
        *why = KvStatus::Ok;
    return store;
}

KvStatus
KvStore::create(const KvOptions &opt)
{
    uint32_t shift = 4;
    while ((uint64_t{1} << shift) < opt.buckets && shift < 28)
        ++shift;
    buckets_ = uint64_t{1} << shift;
    bucket_mask_ = buckets_ - 1;

    ScopedThread t(heap_);
    if (!t.ctx)
        return KvStatus::Invalid;
    NvStatus s = heap_.txBegin(*t.ctx);
    if (s == NvStatus::HeapUnhealthy) {
        bump(stats_.rejected_unhealthy);
        return KvStatus::HeapUnhealthy;
    }
    if (s != NvStatus::Ok)
        return KvStatus::Invalid;

    // One tx creates the whole store: bucket table + super, the super
    // published into the root word at commit. A crash anywhere leaves
    // either no store (rolled back) or a complete empty one.
    uint64_t table = heap_.txAlloc(*t.ctx, buckets_ * 8, nullptr);
    if (!table) {
        KvStatus r = mapAllocFailure();
        heap_.txAbort(*t.ctx);
        return r;
    }
    std::memset(heap_.at(table), 0, buckets_ * 8);
    heap_.device().persist(heap_.at(table), buckets_ * 8,
                           TimeKind::FlushData);

    uint64_t soff = heap_.txAlloc(*t.ctx, sizeof(KvSuper),
                                  heap_.rootWord(root_index_));
    if (!soff) {
        KvStatus r = mapAllocFailure();
        heap_.txAbort(*t.ctx);
        return r;
    }
    KvSuper *sup = static_cast<KvSuper *>(heap_.at(soff));
    sup->magic = kKvMagic;
    sup->version = kKvVersion;
    sup->bucket_shift = shift;
    sup->table_off = table;
    sup->pad = 0;
    sup->crc = superCrc(*sup);
    heap_.device().persist(sup, sizeof(*sup), TimeKind::FlushData);

    if (heap_.txCommit(*t.ctx) != NvStatus::Ok)
        return KvStatus::Invalid;
    table_off_ = table;
    chain_len_.assign(size_t(buckets_), 0);
    return KvStatus::Ok;
}

KvStatus
KvStore::attach(uint64_t super_off)
{
    PmDevice &dev = heap_.device();
    if (super_off + sizeof(KvSuper) > dev.size() || (super_off & 7))
        return KvStatus::Corrupt;
    const KvSuper *sup =
        static_cast<const KvSuper *>(heap_.at(super_off));
    if (sup->magic != kKvMagic || sup->version != kKvVersion ||
        sup->crc != superCrc(*sup))
        return KvStatus::Corrupt;
    if (sup->bucket_shift < 1 || sup->bucket_shift > 28)
        return KvStatus::Corrupt;
    buckets_ = uint64_t{1} << sup->bucket_shift;
    bucket_mask_ = buckets_ - 1;
    if (sup->table_off + buckets_ * 8 > dev.size() ||
        (sup->table_off & 7))
        return KvStatus::Corrupt;
    table_off_ = sup->table_off;
    return rebuild();
}

KvStatus
KvStore::rebuild()
{
    // Open-time index rebuild: one pass over every chain re-derives
    // the volatile cached index (chain lengths, record/byte gauges)
    // and validates each record. The tx layer has already resolved
    // in-flight mutations before this runs, so the walk sees only
    // committed state.
    bump(stats_.rebuilds);
    chain_len_.assign(size_t(buckets_), 0);
    WalkTally t = walkChains(WalkMode::Rebuild);
    bump(stats_.corrupt_records, t.corrupt);
    stats_.records.store(t.records, std::memory_order_relaxed);
    stats_.key_bytes.store(t.key_bytes, std::memory_order_relaxed);
    stats_.value_bytes.store(t.value_bytes, std::memory_order_relaxed);
    bump(stats_.rebuilt_records, t.records);
    return KvStatus::Ok;
}

uint64_t
KvStore::walkers(uint64_t buckets)
{
    cpu_set_t mask;
    const uint64_t cpus = sched_getaffinity(0, sizeof(mask), &mask) == 0
                              ? uint64_t(CPU_COUNT(&mask))
                              : 1;
    return std::max<uint64_t>(
        1, std::min({cpus, kMaxWalkers, buckets / kBucketsPerWalker}));
}

KvStore::WalkTally
KvStore::walkChains(WalkMode mode)
{
    const uint64_t workers = walkers(buckets_);
    std::vector<WalkTally> tally(workers);
    auto walk = [&](uint64_t w) {
        tally[w] = walkSlice(buckets_ * w / workers,
                             buckets_ * (w + 1) / workers, mode);
    };
    {
        // jthreads join as the scope ends, on every path out of it.
        std::vector<std::jthread> threads;
        std::vector<uint64_t> unstarted;
        for (uint64_t w = 1; w < workers; ++w) {
            try {
                threads.emplace_back(walk, w);
            } catch (const std::system_error &) {
                unstarted.push_back(w);
            }
        }
        walk(0);
        for (uint64_t w : unstarted)
            walk(w);
    }
    WalkTally sum;
    for (const WalkTally &t : tally) {
        sum.records += t.records;
        sum.key_bytes += t.key_bytes;
        sum.value_bytes += t.value_bytes;
        sum.corrupt += t.corrupt;
    }
    return sum;
}

KvStore::WalkTally
KvStore::walkSlice(uint64_t first, uint64_t end, WalkMode mode)
{
    const bool rebuild = mode == WalkMode::Rebuild;
    const uint64_t dev_size = heap_.device().size();
    WalkTally t;
    for (uint64_t b = first; b < end; ++b) {
        if (rebuild && b + kPrefetchAhead < end) {
            uint64_t ahead = bucketWord(b + kPrefetchAhead)[0];
            if (ahead != 0 && ahead < dev_size)
                __builtin_prefetch(heap_.at(ahead));
        }
        std::unique_lock<VLock> g(stripeOf(b), std::defer_lock);
        if (!rebuild)
            g.lock();
        uint64_t off = bucketWord(b)[0];
        uint64_t steps = 0;
        uint32_t len = 0;
        while (off) {
            if (++steps > kMaxChainSteps || !recordSane(off)) {
                ++t.corrupt;
                break;
            }
            if (!recordCrcOk(off))
                ++t.corrupt;
            const RecordHeader *h =
                static_cast<const RecordHeader *>(heap_.at(off));
            ++t.records;
            t.key_bytes += h->klen;
            t.value_bytes += h->vlen;
            ++len;
            off = h->next;
        }
        if (rebuild)
            chain_len_[size_t(b)] = len;
    }
    return t;
}

uint64_t
KvStore::bucketOf(std::string_view key) const
{
    return hashKey(key) & bucket_mask_;
}

VLock &
KvStore::stripeOf(uint64_t bucket)
{
    return stripes_[size_t(bucket) % kStripes];
}

uint64_t *
KvStore::bucketWord(uint64_t bucket)
{
    return static_cast<uint64_t *>(heap_.at(table_off_ + bucket * 8));
}

bool
KvStore::recordSane(uint64_t off) const
{
    const PmDevice &dev = heap_.device();
    if (off < 64 || (off & 7) || off + kRecordHeader > dev.size())
        return false;
    const RecordHeader *h =
        static_cast<const RecordHeader *>(heap_.at(off));
    if (h->klen == 0 || h->klen > kMaxKeyLen ||
        h->vlen > kMaxValueLen || h->flags != 0)
        return false;
    return off + kRecordHeader + h->klen + h->vlen <= dev.size();
}

uint32_t
KvStore::recordCrc(uint16_t klen, uint32_t vlen, std::string_view key,
                   std::string_view value)
{
    uint32_t c = crc32(&klen, sizeof(klen));
    c ^= crc32(&vlen, sizeof(vlen));
    c ^= crc32(key.data(), key.size());
    return c ^ crc32(value.data(), value.size());
}

bool
KvStore::recordCrcOk(uint64_t off) const
{
    const RecordHeader *h =
        static_cast<const RecordHeader *>(heap_.at(off));
    const char *bytes =
        static_cast<const char *>(heap_.at(off + kRecordHeader));
    return h->crc == recordCrc(h->klen, h->vlen,
                               std::string_view(bytes, h->klen),
                               std::string_view(bytes + h->klen,
                                                h->vlen));
}

KvStore::FindResult
KvStore::findLocked(uint64_t bucket, std::string_view key)
{
    FindResult r;
    uint64_t *link = bucketWord(bucket);
    uint64_t steps = 0;
    while (*link) {
        uint64_t off = *link;
        if (++steps > kMaxChainSteps || !recordSane(off)) {
            bump(stats_.corrupt_records);
            r.corrupt = true;
            return r;
        }
        RecordHeader *h = static_cast<RecordHeader *>(heap_.at(off));
        const char *bytes =
            static_cast<const char *>(heap_.at(off + kRecordHeader));
        if (h->klen == key.size() &&
            std::memcmp(bytes, key.data(), key.size()) == 0) {
            r.off = off;
            r.pred_link = link;
            return r;
        }
        link = &h->next;
    }
    r.pred_link = link;
    return r;
}

KvStatus
KvStore::refuse()
{
    if (heap_.config().fault_containment &&
        unsigned(heap_.health()) >= unsigned(HeapHealth::Degraded)) {
        bump(stats_.rejected_unhealthy);
        return KvStatus::HeapUnhealthy;
    }
    return KvStatus::Ok;
}

KvStatus
KvStore::mapAllocFailure()
{
    if (heap_.lastStatus() == NvStatus::QuotaExceeded) {
        bump(stats_.rejected_quota);
        return KvStatus::QuotaExceeded;
    }
    bump(stats_.failed_allocs);
    return KvStatus::OutOfMemory;
}

KvStatus
KvStore::put(ThreadCtx &ctx, std::string_view key,
             std::string_view value)
{
    if (key.empty())
        return KvStatus::Invalid;
    if (key.size() > kMaxKeyLen || value.size() > kMaxValueLen)
        return KvStatus::TooLarge;
    if (KvStatus r = refuse(); r != KvStatus::Ok)
        return r;
    uint64_t b = bucketOf(key);
    VLockGuard g(stripeOf(b));
    return putLocked(ctx, b, key, value);
}

KvStatus
KvStore::putLocked(ThreadCtx &ctx, uint64_t b, std::string_view key,
                   std::string_view value)
{
    FindResult f = findLocked(b, key);
    if (f.corrupt)
        return KvStatus::Corrupt;

    NvStatus s = heap_.txBegin(ctx);
    if (s == NvStatus::HeapUnhealthy) {
        bump(stats_.rejected_unhealthy);
        return KvStatus::HeapUnhealthy;
    }
    if (s != NvStatus::Ok)
        return KvStatus::Invalid;

    uint32_t old_vlen = 0;
    if (f.off) {
        // Replace = free old + unlink + link new, one transaction.
        // The free is journaled now but applied at commit, where it
        // routes through the hardening quarantine (delayed reuse).
        RecordHeader *oh = static_cast<RecordHeader *>(heap_.at(f.off));
        old_vlen = oh->vlen;
        if (heap_.txFree(ctx, f.off) != NvStatus::Ok ||
            heap_.txWrite(ctx, f.pred_link, oh->next) != NvStatus::Ok) {
            heap_.txAbort(ctx);
            return KvStatus::Invalid;
        }
    }

    size_t need = kRecordHeader + key.size() + value.size();
    uint64_t noff = heap_.txAlloc(ctx, need, bucketWord(b));
    if (!noff) {
        KvStatus r = mapAllocFailure();
        heap_.txAbort(ctx);
        return r;
    }
    // The block is staged (unpublished) until commit, so these writes
    // need no undo logging; they just have to be durable before the
    // commit record.
    RecordHeader *nh = static_cast<RecordHeader *>(heap_.at(noff));
    char *bytes = static_cast<char *>(heap_.at(noff + kRecordHeader));
    nh->next = *bucketWord(b); // post-unlink chain head
    nh->vlen = uint32_t(value.size());
    nh->klen = uint16_t(key.size());
    nh->flags = 0;
    nh->pad = 0;
    nh->crc = recordCrc(nh->klen, nh->vlen, key, value);
    std::memcpy(bytes, key.data(), key.size());
    std::memcpy(bytes + key.size(), value.data(), value.size());
    heap_.device().persist(nh, kRecordHeader + key.size() + value.size(),
                           TimeKind::FlushData);

    if (heap_.txCommit(ctx) != NvStatus::Ok)
        return KvStatus::Invalid;

    if (f.off) {
        bump(stats_.updates);
        bump(stats_.value_bytes, value.size());
        drop(stats_.value_bytes, old_vlen);
    } else {
        bump(stats_.inserts);
        bump(stats_.records);
        bump(stats_.key_bytes, key.size());
        bump(stats_.value_bytes, value.size());
        ++chain_len_[size_t(b)];
    }
    return KvStatus::Ok;
}

KvStatus
KvStore::get(std::string_view key, std::string *out)
{
    if (key.empty())
        return KvStatus::Invalid;
    if (key.size() > kMaxKeyLen)
        return KvStatus::TooLarge; // symmetric with the put-side refusal
    if (KvStatus r = refuse(); r != KvStatus::Ok)
        return r;
    bump(stats_.gets);
    uint64_t b = bucketOf(key);
    VLockGuard g(stripeOf(b));
    FindResult f = findLocked(b, key);
    if (f.corrupt)
        return KvStatus::Corrupt;
    if (!f.off) {
        bump(stats_.misses);
        return KvStatus::NotFound;
    }
    if (!recordCrcOk(f.off)) {
        bump(stats_.corrupt_records);
        return KvStatus::Corrupt;
    }
    bump(stats_.hits);
    if (out) {
        const RecordHeader *h =
            static_cast<const RecordHeader *>(heap_.at(f.off));
        const char *bytes = static_cast<const char *>(
            heap_.at(f.off + kRecordHeader));
        out->assign(bytes + h->klen, h->vlen);
    }
    return KvStatus::Ok;
}

KvStatus
KvStore::erase(ThreadCtx &ctx, std::string_view key)
{
    if (key.empty())
        return KvStatus::Invalid;
    if (key.size() > kMaxKeyLen)
        return KvStatus::TooLarge;
    if (KvStatus r = refuse(); r != KvStatus::Ok)
        return r;
    uint64_t b = bucketOf(key);
    VLockGuard g(stripeOf(b));
    FindResult f = findLocked(b, key);
    if (f.corrupt)
        return KvStatus::Corrupt;
    if (!f.off)
        return KvStatus::NotFound;

    NvStatus s = heap_.txBegin(ctx);
    if (s == NvStatus::HeapUnhealthy) {
        bump(stats_.rejected_unhealthy);
        return KvStatus::HeapUnhealthy;
    }
    if (s != NvStatus::Ok)
        return KvStatus::Invalid;
    RecordHeader *h = static_cast<RecordHeader *>(heap_.at(f.off));
    uint16_t klen = h->klen;
    uint32_t vlen = h->vlen;
    // Free-then-unlink: both land atomically at commit (the free via
    // the quarantine, the unlink via the journaled word write), and
    // the stripe lock keeps readers out until the record is out of
    // the chain.
    if (heap_.txFree(ctx, f.off) != NvStatus::Ok ||
        heap_.txWrite(ctx, f.pred_link, h->next) != NvStatus::Ok) {
        heap_.txAbort(ctx);
        return KvStatus::Invalid;
    }
    if (heap_.txCommit(ctx) != NvStatus::Ok)
        return KvStatus::Invalid;

    bump(stats_.erases);
    drop(stats_.records);
    drop(stats_.key_bytes, klen);
    drop(stats_.value_bytes, vlen);
    if (chain_len_[size_t(b)])
        --chain_len_[size_t(b)];
    return KvStatus::Ok;
}

KvStatus
KvStore::rmw(ThreadCtx &ctx, std::string_view key,
             const std::function<std::string(std::string_view)> &fn)
{
    if (key.empty())
        return KvStatus::Invalid;
    if (key.size() > kMaxKeyLen)
        return KvStatus::TooLarge;
    if (KvStatus r = refuse(); r != KvStatus::Ok)
        return r;
    uint64_t b = bucketOf(key);
    VLockGuard g(stripeOf(b));
    FindResult f = findLocked(b, key);
    if (f.corrupt)
        return KvStatus::Corrupt;
    std::string_view old;
    if (f.off) {
        if (!recordCrcOk(f.off)) {
            bump(stats_.corrupt_records);
            return KvStatus::Corrupt;
        }
        const RecordHeader *h =
            static_cast<const RecordHeader *>(heap_.at(f.off));
        const char *bytes = static_cast<const char *>(
            heap_.at(f.off + kRecordHeader));
        old = std::string_view(bytes + h->klen, h->vlen);
    }
    // fn may look at `old` in place: putLocked copies the new value
    // into a fresh staged block before the old record is touched.
    std::string next = fn(old);
    KvStatus r = putLocked(ctx, b, key, next);
    if (r == KvStatus::Ok)
        bump(stats_.rmws);
    return r;
}

KvStatus
KvStore::scan(std::string_view start_key, unsigned n,
              std::vector<std::pair<std::string, std::string>> *out)
{
    if (start_key.empty() || !out)
        return KvStatus::Invalid;
    if (KvStatus r = refuse(); r != KvStatus::Ok)
        return r;
    bump(stats_.scans);
    out->clear();
    uint64_t b0 = bucketOf(start_key);
    for (uint64_t i = 0; i < buckets_ && out->size() < n; ++i) {
        uint64_t b = (b0 + i) & bucket_mask_;
        VLockGuard g(stripeOf(b));
        uint64_t off = bucketWord(b)[0];
        uint64_t steps = 0;
        while (off && out->size() < n) {
            if (++steps > kMaxChainSteps || !recordSane(off) ||
                !recordCrcOk(off)) {
                bump(stats_.corrupt_records);
                break;
            }
            const RecordHeader *h =
                static_cast<const RecordHeader *>(heap_.at(off));
            const char *bytes = static_cast<const char *>(
                heap_.at(off + kRecordHeader));
            out->emplace_back(std::string(bytes, h->klen),
                              std::string(bytes + h->klen, h->vlen));
            off = h->next;
        }
    }
    bump(stats_.scanned_records, out->size());
    return KvStatus::Ok;
}

KvStatus
KvStore::verify()
{
    uint64_t bad = walkChains(WalkMode::Verify).corrupt;
    bump(stats_.corrupt_records, bad);
    return bad ? KvStatus::Corrupt : KvStatus::Ok;
}

uint64_t
KvStore::count() const
{
    return stats_.records.load(std::memory_order_relaxed);
}

uint64_t
KvStore::maxChain() const
{
    uint64_t m = 0;
    for (uint32_t len : chain_len_)
        if (len > m)
            m = len;
    return m;
}

uint64_t
KvStore::recordOffset(std::string_view key)
{
    if (key.empty() || key.size() > kMaxKeyLen)
        return 0;
    uint64_t b = bucketOf(key);
    VLockGuard g(stripeOf(b));
    FindResult f = findLocked(b, key);
    return f.off;
}

} // namespace nvalloc
