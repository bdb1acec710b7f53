/**
 * @file
 * Transaction layer implementation (tx.h, DESIGN.md §11): the
 * txBegin/txAlloc/txFree/txWrite/txCommit/txAbort surface, the
 * commit/abort apply paths, and the recovery-side run resolution
 * called from replayWals.
 */

#include <algorithm>

#include "common/logging.h"
#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"

namespace nvalloc {

namespace {

constexpr uint64_t kTxCpuNs = 20; //!< modeled per-tx-call CPU cost

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
    ctx.tx.begin(tx_mgr_.nextId());
    ctx.tx.ops.reserve(kTxMaxOps);
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
    if (ctx.tx.ops.size() >= kTxMaxOps) {
        tel_.add(StatCounter::TxOversize);
        failOp(NvStatus::InvalidArgument);
        return 0;
    }
    if (size == 0) {
        txRejected();
        return 0;
    }
    uint64_t where_off =
        where && dev_.contains(where) ? dev_.offsetOf(where) : kWalNoWhere;

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
    TxOp op;
    op.kind = TxOp::Kind::Alloc;
    op.off = off;
    op.where = where;
    op.size = size;
    ctx.tx.ops.push_back(op);
    tel_.add(StatCounter::TxOpAlloc);
    return off;
}

NvStatus
NvAlloc::txFree(ThreadCtx &ctx, uint64_t off)
{
    if (!ctx.tx.open())
        return txRejected();
    if (ctx.tx.ops.size() >= kTxMaxOps) {
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
    TxOp op;
    op.kind = TxOp::Kind::Free;
    op.off = off;
    ctx.tx.ops.push_back(op);
    tel_.add(StatCounter::TxOpFree);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txWrite(ThreadCtx &ctx, uint64_t *word, uint64_t value)
{
    if (!ctx.tx.open())
        return txRejected();
    if (ctx.tx.ops.size() >= kTxMaxOps) {
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

    TxOp op;
    op.kind = TxOp::Kind::Write;
    op.off = woff;
    op.old_value = old;
    op.new_value = value;
    ctx.tx.ops.push_back(op);
    tel_.add(StatCounter::TxOpWrite);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txCommit(ThreadCtx &ctx)
{
    if (!ctx.tx.open())
        return txRejected();

    // Epoch separation: every op entry is already individually fenced,
    // but this fence guarantees the commit record can only become
    // durable in a strictly later epoch than all of them.
    dev_.fence();
    // The append's own persist+fence is the commit point: ONE flush
    // publishes the whole transaction.
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxCommit,
                         uint64_t(ctx.tx.ops.size()));
    tel_.event(TraceOp::TxCommit, ctx.tx.id());

    // Apply phase — deliberately journal-free: another WAL append here
    // would displace the commit record as the ring's newest entry, and
    // a crash mid-apply would then lose the not-yet-applied remainder.
    // Recovery redoes this loop idempotently instead.
    for (const TxOp &op : ctx.tx.ops) {
        switch (op.kind) {
        case TxOp::Kind::Alloc:
            publish(op.where, op.off);
            break;
        case TxOp::Kind::Free:
            settleFree(op.off);
            break;
        case TxOp::Kind::Write:
            break; // landed in place at txWrite time
        }
    }

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
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxApplied,
                         uint64_t(ctx.tx.ops.size()));

    finishTx(ctx, /*committed=*/true);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

NvStatus
NvAlloc::txAbort(ThreadCtx &ctx)
{
    if (!ctx.tx.open())
        return txRejected();

    // Roll back newest-first so overlapping word updates unwind in
    // reverse order. Crash-safe at every point: until the abort record
    // below lands, recovery sees a recordless run and performs this
    // same (idempotent) undo itself.
    for (auto it = ctx.tx.ops.rbegin(); it != ctx.tx.ops.rend(); ++it) {
        switch (it->kind) {
        case TxOp::Kind::Write: {
            auto *word = static_cast<uint64_t *>(dev_.at(it->off));
            *word = it->old_value;
            dev_.persistFence(word, sizeof(uint64_t),
                              TimeKind::FlushData);
            break;
        }
        case TxOp::Kind::Alloc:
            settleFree(it->off);
            break;
        case TxOp::Kind::Free:
            break; // nothing was mutated at stage time
        }
    }

    dev_.fence();
    ctx.wal.appendTxMark(ctx.tx.id(), kWalTxAbort,
                         uint64_t(ctx.tx.ops.size()));
    tel_.event(TraceOp::TxAbort, ctx.tx.id());
    finishTx(ctx, /*committed=*/false);
    VClock::advance(kTxCpuNs, TimeKind::Other);
    return NvStatus::Ok;
}

void
NvAlloc::finishTx(ThreadCtx &ctx, bool committed)
{
    for (const TxOp &op : ctx.tx.ops) {
        if (op.kind != TxOp::Kind::Write)
            tx_mgr_.unstage(op.off);
    }
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
        txRedoRun(run);
        ++recovery_.tx_committed;
    } else {
        txUndoRun(run);
        ++recovery_.tx_rolled_back;
    }
}

void
NvAlloc::txRedoRun(const std::vector<WalEntry> &run)
{
    for (const WalEntry &e : run) {
        WalOp op = WalOp(e.block_op & 3);
        uint64_t block = e.block_op >> 2;
        if (op == kWalAlloc) {
            // Re-claim defensively, then finish the publish the apply
            // phase may not have reached — only when the block
            // demonstrably exists: a torn-line crash can durably commit
            // the record while the extent's own log entry was dropped,
            // and an attach word must never point at space recovery
            // just returned to the free pool.
            if (rollForwardAlloc(block) && e.where_off != kWalNoWhere &&
                e.where_off + sizeof(uint64_t) <= dev_.size()) {
                auto *w =
                    static_cast<uint64_t *>(dev_.at(e.where_off));
                if (*w != block) {
                    *w = block;
                    dev_.persistFence(w, sizeof(uint64_t),
                                      TimeKind::FlushData);
                }
            }
            ++recovery_.wal_completions;
        } else if (op == kWalFree) {
            settleFree(block);
            ++recovery_.wal_completions;
        } else if (op == kWalTxData) {
            // Word update: re-apply the redo value.
            if (block + sizeof(uint64_t) <= dev_.size() &&
                (block & 7) == 0) {
                auto *w = static_cast<uint64_t *>(dev_.at(block));
                if (*w != e.size) {
                    *w = e.size;
                    dev_.persistFence(w, sizeof(uint64_t),
                                      TimeKind::FlushData);
                }
            }
            ++recovery_.wal_completions;
        }
    }
}

void
NvAlloc::txUndoRun(const std::vector<WalEntry> &run)
{
    for (auto it = run.rbegin(); it != run.rend(); ++it) {
        const WalEntry &e = *it;
        WalOp op = WalOp(e.block_op & 3);
        uint64_t block = e.block_op >> 2;
        if (op == kWalAlloc) {
            settleFree(block);
            // The publish only happens after the commit record, so the
            // attach word cannot hold the block — but scrub it
            // defensively against torn-entry replay with verify off.
            if (e.where_off != kWalNoWhere &&
                e.where_off + sizeof(uint64_t) <= dev_.size()) {
                auto *w =
                    static_cast<uint64_t *>(dev_.at(e.where_off));
                if (*w == block) {
                    *w = 0;
                    dev_.persistFence(w, sizeof(uint64_t),
                                      TimeKind::FlushData);
                }
            }
            ++recovery_.wal_undos;
        } else if (op == kWalTxData) {
            // Word update: restore the undo value.
            if (block + sizeof(uint64_t) <= dev_.size() &&
                (block & 7) == 0) {
                auto *w = static_cast<uint64_t *>(dev_.at(block));
                if (*w != e.where_off) {
                    *w = e.where_off;
                    dev_.persistFence(w, sizeof(uint64_t),
                                      TimeKind::FlushData);
                }
            }
            ++recovery_.wal_undos;
        }
        // kWalFree: staged only — nothing was mutated, nothing to undo.
    }
}

} // namespace nvalloc
