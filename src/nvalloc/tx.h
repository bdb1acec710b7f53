/**
 * @file
 * Crash-consistent transaction layer (DESIGN.md §11).
 *
 * A transaction groups up to kTxMaxOps allocations, deferred frees and
 * 8-byte word updates into one atomic unit: after a crash, recovery
 * resolves every in-flight transaction to all-or-nothing. The layer
 * reuses the existing per-thread WAL rings rather than adding a second
 * log — each staged op journals one tx-tagged WAL entry (the same one
 * flush per op the plain fast path pays), and commit is a single
 * epoch-separated commit record + flush.
 *
 * Durability protocol, per thread ring:
 *
 *   txAlloc   journal kWalAlloc (tagged)   block allocated, NOT
 *                                          published until commit
 *   txFree    journal kWalFree (tagged)    block stays allocated;
 *                                          the free applies at commit
 *   txWrite   journal kWalTxData (tagged,  undo value in where_off,
 *             old+new word values)         redo value in size; the
 *                                          in-place write lands now
 *   txCommit  fence; journal ONE commit record (its own append flush
 *             is the commit point); then apply: redo the run's alloc
 *             and free entries (publish attach words, perform deferred
 *             frees) — with NO further journaling, so the commit
 *             record stays the ring's newest entry until the apply
 *             phase is complete
 *   txAbort   undo the run newest-first (restore words, free staged
 *             allocs), fence, journal an abort record
 *
 * The run of entries is the transaction's only record: commit and
 * abort read it back from the ring, and every entry is resolved by
 * one redo and one undo rule (NvAlloc::redoEntry / undoEntry).
 * Recovery (replayWals) finds the ring's newest intact entry; when it
 * is tx-tagged, the whole run of that tx id is gathered and resolved
 * by the same rules: a commit record present → redo forward
 * (idempotently), otherwise → undo backward. Ring overwrites go
 * oldest-seq-first, so a run's record can never outlive its op
 * entries out of order.
 *
 * While a transaction is open on a thread, plain alloc/free on the
 * same ThreadCtx are rejected (InvalidArgument): an untagged entry at
 * the ring tail would shadow the open run's resolution. Other threads
 * are unaffected — except that free() of a block staged in ANY open
 * transaction is rejected by the ordered free validator with
 * CorruptionKind::TxStagedFree instead of silently racing the commit.
 *
 * The whole tx lifetime holds a MaintenanceService pin, so background
 * slow GC never relocates bookkeeping-log entries out from under an
 * uncommitted transaction's large allocations.
 */

#ifndef NVALLOC_NVALLOC_TX_H
#define NVALLOC_NVALLOC_TX_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/host_lock.h"
#include "common/size_classes.h"

namespace nvalloc {

/** Per-thread transaction state, embedded in ThreadCtx. The open
 *  transaction's ops are the thread's WAL entries after `start`: the
 *  run is their only record, and kTxMaxOps keeps it inside the ring. */
struct TxContext
{
    /** The owning ring's sequence number before the first op. */
    uint64_t start = 0;

    /** The open transaction's id, 0 when none is open: the heap's one
     *  record of open transactions. */
    uint32_t id() const { return id_.load(std::memory_order_relaxed); }
    bool open() const { return id() != 0; }

    void
    begin(uint32_t id, uint64_t start_seq)
    {
        start = start_seq;
        id_.store(id, std::memory_order_relaxed);
    }

    void reset() { id_.store(0, std::memory_order_relaxed); }

  private:
    /** Written only by the owning thread; atomic because the auditor
     *  reads it from another thread (under the attach mutex). */
    std::atomic<uint32_t> id_{0};
};

/**
 * A set of block offsets split into 64 shards by key hash, each with
 * its own cache-line-aligned HostLock, set and size count. Every
 * operation touches one shard, so transactions on unrelated blocks
 * never meet on a lock or a written cache line. `size()`, and
 * `contains()` on an empty shard, take no lock: they read the shard
 * counts.
 */
class ShardedKeySet
{
  public:
    using Key = uint64_t;

    /** Insert `key`; false if it was already present. */
    bool
    insert(Key key)
    {
        Shard &s = shardOf(key);
        std::lock_guard<HostLock> g(s.mu);
        if (!s.keys.insert(key).second)
            return false;
        s.count.store(s.keys.size(), std::memory_order_relaxed);
        return true;
    }

    void
    erase(Key key)
    {
        Shard &s = shardOf(key);
        std::lock_guard<HostLock> g(s.mu);
        s.keys.erase(key);
        s.count.store(s.keys.size(), std::memory_order_relaxed);
    }

    bool
    contains(Key key) const
    {
        const Shard &s = shardOf(key);
        if (s.count.load(std::memory_order_relaxed) == 0)
            return false;
        std::lock_guard<HostLock> g(s.mu);
        return s.keys.count(key) != 0;
    }

    /** Sum of the shard counts: exact when no insert or erase races
     *  the read, a snapshot otherwise. */
    uint64_t
    size() const
    {
        uint64_t n = 0;
        for (const Shard &s : shards_)
            n += s.count.load(std::memory_order_relaxed);
        return n;
    }

    std::vector<Key>
    snapshot() const
    {
        std::vector<Key> out;
        for (const Shard &s : shards_) {
            std::lock_guard<HostLock> g(s.mu);
            out.insert(out.end(), s.keys.begin(), s.keys.end());
        }
        return out;
    }

  private:
    static constexpr unsigned kShardBits = 6;

    struct alignas(kCacheLine) Shard
    {
        mutable HostLock mu;
        std::unordered_set<Key> keys;
        std::atomic<uint64_t> count{0};
    };

    // Fibonacci hashing: block offsets share their low bits; the
    // multiply spreads them over the shards.
    static unsigned
    shardIndex(Key key)
    {
        return unsigned((key * 0x9E3779B97F4A7C15ull) >>
                        (64 - kShardBits));
    }

    Shard &shardOf(Key key) { return shards_[shardIndex(key)]; }
    const Shard &shardOf(Key key) const { return shards_[shardIndex(key)]; }

    Shard shards_[1u << kShardBits];
};

/**
 * Heap-wide transaction bookkeeping: id allocation and the
 * staged-offset registry consulted by the ordered free validator.
 * Open transactions are not recorded here: each lives in its thread's
 * TxContext. All volatile — a crash forgets it, and recovery clears
 * the rings it mirrors.
 *
 * The staged set is sharded by key hash (ShardedKeySet), so a
 * replacing put's four registry calls (two stages, two unstages) lock
 * shards that concurrent puts on other keys almost never share. The
 * id counter stays one atomic: recovery resolves crashed runs in id
 * order, which is the commit order of conflicting transactions only
 * because every id comes from one sequence (DESIGN.md §11).
 *
 * The free-path probe is the only hot-path cost the layer adds:
 * one relaxed load of the probed shard's count, which is zero
 * whenever no transaction holds a staged block in that shard.
 */
class TxManager
{
  public:
    /** A fresh nonzero transaction id. */
    uint32_t
    nextId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Recovery-time floor for id allocation: ids are volatile (they
     *  restart at 1 on reopen), but the rings persist records tagged
     *  with the previous instance's ids. Seeding past the largest id
     *  found in the rings keeps a fresh transaction from aliasing a
     *  stale commit/applied/abort record — resolution would otherwise
     *  mistake the stale control record for the new run's. */
    void
    seedNextId(uint32_t floor)
    {
        uint32_t cur = next_id_.load(std::memory_order_relaxed);
        while (cur < floor &&
               !next_id_.compare_exchange_weak(
                   cur, floor, std::memory_order_relaxed)) {
        }
    }

    /** Register `off` as staged by an open tx (a tx-allocated block
     *  awaiting publish, or a tx-freed block awaiting its deferred
     *  free). False if some tx already staged it. */
    bool stage(uint64_t off) { return staged_.insert(off); }

    void unstage(uint64_t off) { staged_.erase(off); }

    /** Free-validator probe. */
    bool isStaged(uint64_t off) const { return staged_.contains(off); }

    /** Auditor snapshot of the staged registry. */
    std::vector<uint64_t> stagedSnapshot() const { return staged_.snapshot(); }

    uint64_t stagedCount() const { return staged_.size(); }

  private:
    ShardedKeySet staged_;
    std::atomic<uint32_t> next_id_{0};
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_TX_H
