/**
 * @file
 * Transaction layer implementation (tx.h, DESIGN.md §11): the
 * txBegin/txAlloc/txFree/txWrite/txCommit/txAbort surface and the
 * recovery-side run resolution called from replayWals. Both resolve
 * the run's entries with redoEntry/undoEntry (recovery.cc).
 */

#include <algorithm>

#include "common/logging.h"
#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"

namespace nvalloc {

namespace {

constexpr uint64_t kTxCpuNs = 20; //!< modeled per-tx-call CPU cost

/** Ops the open transaction has journaled: its run is the thread's WAL
 *  entries after the sequence number txBegin recorded. */
uint64_t
runLength(const ThreadCtx &ctx)
{
    return ctx.wal.sequence() - ctx.tx.start;
}

} // namespace

NvStatus
NvAlloc::txRejected()
{
    tel_.add(StatCounter::TxRejected);
    return failOp(NvStatus::InvalidArgument);
}

NvStatus
NvAlloc::txBegin(ThreadCtx &ctx)
{
    if (open_status_ != NvStatus::Ok)
        return txRejected();
    // Containment: a Degraded/Quarantined heap refuses new
    // transactions like it refuses plain mutations (an already-open tx
    // is allowed to resolve — commit and abort both shrink state).
    if (refuseUnhealthy())
        return NvStatus::HeapUnhealthy;
    if (!logMode()) {
        // The protocol journals tx-tagged entries through the
        // per-thread WAL; the GC variant skips small-op journaling
        // entirely and the IC variant has no replay, so neither can
        // resolve a run after a crash.
        return txRejected();
    }
    if (ctx.tx.open())
        return txRejected(); // nested begin
    ctx.tx.begin(tx_mgr_.nextId(), ctx.wal.sequence());
    // Hold a maintenance pin for the whole tx lifetime: background
    // slow GC relocates bookkeeping-log entries, and an uncommitted
    // tx's large allocations must keep their log refs stable until
    // commit or abort resolves them.
    maint_.pin();
    tel_.add(StatCounter::TxBegin);
    tel_.event(TraceOp::TxBegin, ctx.tx.id());
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

uint64_t
NvAlloc::txAlloc(ThreadCtx &ctx, size_t size, uint64_t *where)
{
    if (!ctx.tx.open()) {
        txRejected();
        return 0;
    }
    if (runLength(ctx) >= kTxMaxOps) {
        tel_.add(StatCounter::TxOversize);
        failOp(NvStatus::InvalidArgument);
        return 0;
    }
    // The entry is the attach word's only record, so the word must be
    // one an offset can name: a persistent word inside the device.
    if (size == 0 || (where && !dev_.contains(where))) {
        txRejected();
        return 0;
    }
    uint64_t where_off = where ? dev_.offsetOf(where) : kWalNoWhere;

    // Reuse the plain small/large paths; journal_tx_id makes their one
    // WAL append tx-tagged. Guard sampling is deliberately bypassed:
    // guard registrations are volatile and a sampled tx alloc would
    // lose its redzone contract across the crash the tx exists for.
    ctx.journal_tx_id = ctx.tx.id();
    uint64_t off = size <= smallLimit()
                       ? allocSmall(ctx, size, where_off)
                       : allocLarge(ctx, size, where_off);
    ctx.journal_tx_id = 0;
    if (off == 0)
        return 0; // failAlloc already classified it

    // The block is allocated and journaled but unpublished: stage it
    // so plain free() rejects it until commit publishes the offset.
    tx_mgr_.stage(off);
    tel_.add(StatCounter::TxOpAlloc);
    return off;
}

NvStatus
NvAlloc::txFree(ThreadCtx &ctx, uint64_t off)
{
    if (!ctx.tx.open())
        return txRejected();
    if (runLength(ctx) >= kTxMaxOps) {
        tel_.add(StatCounter::TxOversize);
        return failOp(NvStatus::InvalidArgument);
    }
    // Stage before validating so no other thread can pass its own
    // staged-probe between our validation and the commit; back out on
    // any rejection below.
    if (!tx_mgr_.stage(off))
        return rejectFree(off, CorruptionKind::TxStagedFree);

    // The free pipeline's checks with the mutation deferred: the block
    // must be provably ours and allocated NOW; the bitmap/extent state
    // only changes at commit. A canary stomp is caught here, where the
    // live heap's canaries are trustworthy (the recovery redo path's
    // are not until restamp), and leaks the block: nothing is staged.
    FreeResult r = freeBlock(
        FreeCall{&ctx, off, nullptr, kWalNoWhere, FreeMode::Validate});
    if (r != FreeResult::Retired) {
        tx_mgr_.unstage(off);
        return r == FreeResult::Leaked ? NvStatus::Ok
                                       : NvStatus::InvalidFree;
    }

    // Journal the deferred free (one flush, tagged). No attach word is
    // cleared here — pair the free with a txWrite of the owning
    // pointer word to clear it in the same atomic unit.
    ctx.wal.append(kWalFree, off, kWalNoWhere, 0, ctx.tx.id());
    tel_.add(StatCounter::TxOpFree);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txWrite(ThreadCtx &ctx, uint64_t *word, uint64_t value)
{
    if (!ctx.tx.open())
        return txRejected();
    if (runLength(ctx) >= kTxMaxOps) {
        tel_.add(StatCounter::TxOversize);
        return failOp(NvStatus::InvalidArgument);
    }
    // The undo value must be recoverable from the entry alone, so the
    // target has to be a persistent, aligned word inside the device.
    if (!word || !dev_.contains(word))
        return txRejected();
    uint64_t woff = dev_.offsetOf(word);
    if ((woff & 7) != 0)
        return txRejected();

    uint64_t old = *word;
    // Journal undo (where_off) + redo (size) before the in-place
    // write: crash before the entry = word untouched; crash after =
    // the entry restores or re-applies it either way.
    ctx.wal.append(kWalTxData, woff, old, value, ctx.tx.id());
    *word = value;
    dev_.persistFence(word, sizeof(uint64_t), TimeKind::FlushData);
    tel_.add(StatCounter::TxOpWrite);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txCommit(ThreadCtx &ctx)
{
    if (!ctx.tx.open())
        return txRejected();
    uint64_t ops = runLength(ctx);

    // Epoch separation: every op entry is already individually fenced,
    // but this fence guarantees the commit record can only become
    // durable in a strictly later epoch than all of them.
    dev_.fence();
    // The append's own persist+fence is the commit point: ONE flush
    // publishes the whole transaction.
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxCommit, ops);
    tel_.event(TraceOp::TxCommit, ctx.tx.id());

    // Apply phase — deliberately journal-free: another WAL append here
    // would displace the commit record as the ring's newest entry, and
    // a crash mid-apply would then lose the not-yet-applied remainder.
    // Recovery redoes the run idempotently instead. Word writes landed
    // in place at txWrite time.
    ctx.wal.forEachSince(ctx.tx.start, false, [&](const WalEntry &e) {
        if (WalOp(e.block_op & 3) != kWalTxData)
            redoEntry(e);
    });

    // Seal: every applied effect is individually persisted above, so
    // this record makes "the apply phase completed" durable — recovery
    // then leaves the run alone instead of redoing it. The seal must
    // land before the caller releases whatever lock serializes
    // conflicting transactions: redoing an applied run after a *later*
    // transaction committed a write to the same word would rewind that
    // word (see kWalTxApplied in layout.h). A crash before the seal
    // implies no later conflicting transaction could have started, so
    // the redo recovery performs instead is safe.
    dev_.fence();
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxApplied, ops);

    finishTx(ctx, /*committed=*/true);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txAbort(ThreadCtx &ctx)
{
    if (!ctx.tx.open())
        return txRejected();
    uint64_t ops = runLength(ctx);

    // Roll back newest-first so overlapping word updates unwind in
    // reverse order. Crash-safe at every point: until the abort record
    // below lands, recovery sees a recordless run and performs this
    // same (idempotent) undo itself.
    ctx.wal.forEachSince(ctx.tx.start, true,
                         [&](const WalEntry &e) { undoEntry(e); });

    dev_.fence();
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxAbort, ops);
    tel_.event(TraceOp::TxAbort, ctx.tx.id());
    finishTx(ctx, /*committed=*/false);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

void
NvAlloc::finishTx(ThreadCtx &ctx, bool committed)
{
    ctx.wal.forEachSince(ctx.tx.start, false, [&](const WalEntry &e) {
        if (WalOp(e.block_op & 3) != kWalTxData)
            tx_mgr_.unstage(e.block_op >> 2);
    });
    tel_.add(committed ? StatCounter::TxCommit : StatCounter::TxAbort);
    ctx.tx.reset();
    maint_.unpin();
}

// ---- recovery-side resolution (called from replayWals) --------------

/**
 * The ring's newest intact entry belongs to transaction `tx_id`:
 * gather the whole run and resolve it all-or-nothing. An applied seal
 * or an abort record present → the run fully resolved *live* (apply
 * loop resp. rollback completed, each effect persisted) and recovery
 * must leave it alone — re-applying or re-undoing it here could
 * rewind words that later transactions wrote. A commit record without
 * the seal → redo forward (the crash hit the apply phase or the
 * instant after the record); otherwise (no record = in flight) → undo
 * backward. Both directions are idempotent, so a crash during
 * recovery itself just resolves again.
 */
void
NvAlloc::resolveTxRun(uint64_t ring_off, uint32_t tx_id)
{
    std::vector<WalEntry> run;
    bool committed = false;
    bool resolved_live = false;
    // newestEntry already counted the ring's rejects.
    Wal::forEachIntact(&dev_, ring_off, [&](const WalEntry &e) {
        if (e.tx_id != tx_id)
            return;
        if (e.tx_mark == kWalTxCommit)
            committed = true;
        else if (e.tx_mark == kWalTxApplied || e.tx_mark == kWalTxAbort)
            resolved_live = true;
        else if (e.tx_mark == kWalTxOp)
            run.push_back(e);
    });
    if (resolved_live)
        return; // completed before the crash; nothing in flight
    std::sort(run.begin(), run.end(),
              [](const WalEntry &a, const WalEntry &b) {
                  return a.seq < b.seq;
              });
    if (committed) {
        for (const WalEntry &e : run)
            redoEntry(e);
        recovery_.wal_completions += run.size();
        ++recovery_.tx_committed;
    } else {
        for (auto it = run.rbegin(); it != run.rend(); ++it) {
            undoEntry(*it);
            if (WalOp(it->block_op & 3) != kWalFree)
                ++recovery_.wal_undos;
        }
        ++recovery_.tx_rolled_back;
    }
}

} // namespace nvalloc
