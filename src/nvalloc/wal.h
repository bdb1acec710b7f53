/**
 * @file
 * Per-thread write-ahead log (NVAlloc-LOG consistency, paper §4.1).
 *
 * Each thread owns a small persistent ring of WAL entries. An
 * allocation/free journals its intent before touching metadata, so a
 * crash between the journal write and the metadata/attach updates is
 * resolved by replay (paper: "All memory leaks can be resolved by
 * replaying the WALs"). Because a thread finishes one operation before
 * starting the next, only the newest entry can be in flight; appending
 * the next entry implicitly commits the previous one, so each
 * operation costs exactly one WAL flush.
 *
 * Entries are placed into the ring through the same InterleaveMap as
 * slab bitmaps: with interleaving on, consecutive entries land in
 * different cache lines and WAL flushes stop re-flushing the line they
 * just flushed (Table 2: IM(WAL)).
 */

#ifndef NVALLOC_NVALLOC_WAL_H
#define NVALLOC_NVALLOC_WAL_H

#include <atomic>
#include <cstdint>

#include "common/logging.h"
#include "nvalloc/interleave.h"
#include "nvalloc/layout.h"
#include "pm/pm_device.h"

namespace nvalloc {

class Wal
{
  public:
    Wal() = default;

    /** Attach to a persistent ring at device offset `ring_off`. */
    void
    attach(PmDevice *dev, uint64_t ring_off, bool interleaved,
           unsigned stripes)
    {
        dev_ = dev;
        ring_ = static_cast<WalEntry *>(dev->at(ring_off));
        map_ = InterleaveMap::build(kWalRingEntries,
                                    sizeof(WalEntry) * 8,
                                    interleaved ? stripes : 1);
        NV_ASSERT(map_.physicalSlots() * sizeof(WalEntry) <=
                  kWalRingBytes);
        seq_.store(0, std::memory_order_relaxed);
    }

    bool attached() const { return ring_ != nullptr; }

    /** Journal one operation and flush the entry's line. A nonzero
     *  `tx_id` tags the entry as one op of that transaction
     *  (tx_mark kWalTxOp); the fast path passes 0 and pays nothing. */
    void
    append(WalOp op, uint64_t block_off, uint64_t where_off,
           uint64_t size, uint32_t tx_id = 0)
    {
        appendRaw(op, block_off, where_off, size, tx_id,
                  tx_id != 0 ? kWalTxOp : kWalTxNone);
    }

    /** Journal a transaction control record (commit, abort, or
     *  applied seal) for `tx_id`. `op_count` rides in the offset bits
     *  so the auditor can cross-check the run length. The append's own
     *  persist+fence is the commit point; the caller fences *before*
     *  calling so the record lands in its own epoch after every op
     *  entry. */
    void
    appendTxMark(uint32_t tx_id, WalTxMark mark, uint64_t op_count)
    {
        NV_ASSERT(mark == kWalTxCommit || mark == kWalTxAbort ||
                  mark == kWalTxApplied);
        appendRaw(kWalTxData, op_count, kWalNoWhere, 0, tx_id, mark);
    }

    /**
     * Failure unwind: scrub the newest entry — the one this thread
     * just appended for an operation that then failed (e.g. an extent
     * journalled pre-log whose bookkeeping-log append was refused) —
     * so replay never sees an intent for an operation that was
     * abandoned. Exposing the previous entry as newest is safe: it
     * describes a completed operation, which replay resolves
     * idempotently (the same state as crashing between operations).
     * The sequence number is given back, so the next append reuses
     * the slot and an open transaction's run spans only its own ops.
     */
    void
    retireNewest()
    {
        uint64_t seq = seq_.load(std::memory_order_relaxed);
        NV_ASSERT(seq != 0);
        unsigned slot = map_.physical(seq % kWalRingEntries);
        WalEntry &e = ring_[slot];
        e.block_op = 0; // op bits kWalNone: replay skips the slot
        e.tx_id = 0;
        e.tx_mark = kWalTxNone;
        e.crc = walEntryCrc(e);
        dev_->persist(&e, sizeof(e), TimeKind::FlushWal);
        dev_->fence();
        seq_.store(seq - 1, std::memory_order_relaxed);
    }

    /** Entries appended since attach and not retired (== WAL commits:
     *  appending entry n implicitly commits entry n-1, and the newest
     *  entry is committed by its own trailing fence). */
    uint64_t
    sequence() const
    {
        return seq_.load(std::memory_order_relaxed);
    }

    /**
     * Call `fn(const WalEntry &)` for each entry appended after
     * sequence number `after`, oldest first (newest first with
     * `newest_first`). Owning thread only; the entries must still fit
     * the ring, as an open transaction's run always does.
     */
    template <typename Fn>
    void
    forEachSince(uint64_t after, bool newest_first, Fn &&fn) const
    {
        uint64_t last = sequence();
        NV_ASSERT(after <= last && last - after <= kWalRingEntries);
        for (uint64_t i = 1; i <= last - after; ++i) {
            uint64_t seq = newest_first ? last + 1 - i : after + i;
            const WalEntry &e = ring_[map_.physical(seq % kWalRingEntries)];
            fn(e);
        }
    }

    /**
     * Replay helper: call `fn(const WalEntry &)` for every intact
     * entry of the ring at `ring_off`, in no particular order. Static
     * because replay runs before any Wal is attached. Transaction
     * resolution uses this to gather a tx's whole run; callers sort by
     * seq themselves.
     *
     * With `verify` on, a used slot that fails walEntryIntact() is
     * skipped and counted in `*rejected`; with it off, every used slot
     * is passed on. One crc over a cached line costs a handful of
     * cycles on real hardware, charged as part of the ring read.
     */
    template <typename Fn>
    static void
    forEachIntact(PmDevice *dev, uint64_t ring_off, Fn &&fn,
                  unsigned *rejected = nullptr, bool verify = true)
    {
        auto *ring = static_cast<const WalEntry *>(dev->at(ring_off));
        unsigned n = kWalRingBytes / sizeof(WalEntry);
        for (unsigned i = 0; i < n; ++i) {
            const WalEntry &e = ring[i];
            if ((e.block_op & 3) == kWalNone)
                continue;
            if (verify && !walEntryIntact(*dev, e)) {
                if (rejected)
                    ++*rejected;
                continue;
            }
            fn(e);
        }
    }

    /**
     * Replay helper: the newest intact entry of the ring at
     * `ring_off`, or nullptr if the ring holds none; `rejected` and
     * `verify` as in forEachIntact(). A torn entry can only be the
     * newest append (older entries were implicitly committed by later
     * ones), so skipping it means the half-journaled operation is
     * treated as never-started — exactly the undo semantics replay
     * needs.
     */
    static const WalEntry *
    newestEntry(PmDevice *dev, uint64_t ring_off,
                unsigned *rejected = nullptr, bool verify = true)
    {
        const WalEntry *best = nullptr;
        forEachIntact(
            dev, ring_off,
            [&](const WalEntry &e) {
                if (!best || e.seq > best->seq)
                    best = &e;
            },
            rejected, verify);
        return best;
    }

  private:
    void
    appendRaw(WalOp op, uint64_t block_off, uint64_t where_off,
              uint64_t size, uint32_t tx_id, uint32_t tx_mark)
    {
        // seq 0 means "never used". Only the owning thread appends, so
        // a relaxed load+store increment suffices; it is atomic only
        // so stats readers on other threads (stats.wal.commits sums
        // the rings' sequences) race-freely observe it.
        uint64_t seq = seq_.load(std::memory_order_relaxed) + 1;
        seq_.store(seq, std::memory_order_relaxed);
        unsigned slot = map_.physical(seq % kWalRingEntries);
        WalEntry &e = ring_[slot];
        e.block_op = (block_off << 2) | uint64_t(op);
        e.seq = seq;
        e.where_off = where_off;
        e.size = size;
        e.tx_id = tx_id;
        e.tx_mark = tx_mark;
        e.crc = walEntryCrc(e);
        dev_->persist(&e, sizeof(e), TimeKind::FlushWal);
        dev_->fence();
    }

    PmDevice *dev_ = nullptr;
    WalEntry *ring_ = nullptr;
    InterleaveMap map_;
    std::atomic<uint64_t> seq_{0};
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_WAL_H
