/**
 * @file
 * Transaction-layer tests (DESIGN.md §11): the txBegin/txAlloc/txFree/
 * txWrite/txCommit/txAbort surface, its interaction with the plain
 * fast path and the hardened free validator, the auditor's tx
 * invariants, and — the centerpiece — an every-point crash sweep: for
 * a matrix of transaction shapes, a crash is armed at the 1st, 2nd,
 * 3rd, ... flush (and fence) of the transaction section until the
 * section completes, and at EVERY point the recovered heap must show
 * the transaction all-or-nothing: every staged effect visible, or
 * none, never a mix — plus no leak and a violation-free audit.
 *
 * Like the fault-injection sweep, the tests honour
 * NVALLOC_MAINTENANCE=off|manual|thread and NVALLOC_HARDENING=full
 * (canaries + delayed-reuse quarantine), so the CI tx legs prove the
 * protocol under a racing maintenance worker and full hardening.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/wal.h"
#include "test_util.h"

namespace nvalloc {
namespace {

/** Is the large extent at `off` currently activated (non-slab)? */
bool
largeIsLive(NvAlloc &alloc, uint64_t off)
{
    Veh *veh = alloc.large().findVeh(off);
    return veh && veh->off == off && !veh->is_slab &&
           veh->state == Veh::State::Activated;
}

uint64_t
ctlValue(NvAlloc &alloc, const char *name)
{
    uint64_t v = ~uint64_t{0};
    EXPECT_EQ(alloc.ctlRead(name, &v), NvStatus::Ok) << name;
    return v;
}

// ---------------------------------------------------------------------
// Functional surface
// ---------------------------------------------------------------------

class TxFixture : public ::testing::Test
{
  protected:
    virtual NvAllocConfig config() const { return envConfig(); }

    void
    SetUp() override
    {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 28;
        dcfg.shadow = true;
        dev_ = std::make_unique<PmDevice>(dcfg);
        alloc_ = NvAlloc::openOrDie(*dev_, config());
        ctx_ = alloc_->attachThread();
        ASSERT_NE(ctx_, nullptr);
    }

    void
    TearDown() override
    {
        if (ctx_ && alloc_)
            alloc_->detachThread(ctx_);
        alloc_.reset();
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<NvAlloc> alloc_;
    ThreadCtx *ctx_ = nullptr;
};

TEST_F(TxFixture, CommitPublishesEveryOpAtomically)
{
    // Pre-state: one plain block to free inside the tx, and a
    // persistent word for txWrite.
    uint64_t pre = alloc_->allocOffset(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(pre, 0u);
    uint64_t *w = alloc_->rootWord(1);
    *w = 0x1111;
    dev_->persistFence(w, 8, TimeKind::FlushData);

    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    uint64_t small = alloc_->txAlloc(*ctx_, 48, alloc_->rootWord(2));
    ASSERT_NE(small, 0u);
    uint64_t large = alloc_->txAlloc(*ctx_, 100 * 1024,
                                     alloc_->rootWord(3));
    ASSERT_NE(large, 0u);
    EXPECT_TRUE(blockIsLive(*alloc_, small));
    // Not yet published: the attach words still read zero.
    EXPECT_EQ(*alloc_->rootWord(2), 0u);
    EXPECT_EQ(*alloc_->rootWord(3), 0u);

    ASSERT_EQ(alloc_->txFree(*ctx_, pre), NvStatus::Ok);
    EXPECT_TRUE(blockIsLive(*alloc_, pre)) << "free deferred to commit";
    ASSERT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(0), 0),
              NvStatus::Ok);
    ASSERT_EQ(alloc_->txWrite(*ctx_, w, 0x2222), NvStatus::Ok);
    EXPECT_EQ(*w, 0x2222u) << "txWrite lands in place";

    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_EQ(*alloc_->rootWord(2), small);
    EXPECT_EQ(*alloc_->rootWord(3), large);
    EXPECT_EQ(*alloc_->rootWord(0), 0u);
    EXPECT_FALSE(blockIsLive(*alloc_, pre)) << "deferred free applied";
    EXPECT_TRUE(blockIsLive(*alloc_, small));
    EXPECT_TRUE(largeIsLive(*alloc_, large));

    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.commits"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.staged_blocks"), 0u);
}

TEST_F(TxFixture, AbortRollsBackEveryOp)
{
    uint64_t pre = alloc_->allocOffset(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(pre, 0u);
    uint64_t *w = alloc_->rootWord(1);
    *w = 0x1111;
    dev_->persistFence(w, 8, TimeKind::FlushData);
    uint64_t live_before = liveSmallBlocks(*alloc_);

    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    uint64_t small = alloc_->txAlloc(*ctx_, 48, alloc_->rootWord(2));
    ASSERT_NE(small, 0u);
    uint64_t large = alloc_->txAlloc(*ctx_, 100 * 1024,
                                     alloc_->rootWord(3));
    ASSERT_NE(large, 0u);
    ASSERT_EQ(alloc_->txFree(*ctx_, pre), NvStatus::Ok);
    ASSERT_EQ(alloc_->txWrite(*ctx_, w, 0x2222), NvStatus::Ok);
    ASSERT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);

    EXPECT_EQ(*alloc_->rootWord(2), 0u);
    EXPECT_EQ(*alloc_->rootWord(3), 0u);
    EXPECT_EQ(*w, 0x1111u) << "txWrite rolled back";
    EXPECT_TRUE(blockIsLive(*alloc_, pre)) << "staged free discarded";
    EXPECT_FALSE(blockIsLive(*alloc_, small));
    EXPECT_FALSE(largeIsLive(*alloc_, large));
    EXPECT_EQ(liveSmallBlocks(*alloc_), live_before);

    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.aborts"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.staged_blocks"), 0u);
}

TEST_F(TxFixture, EmptyTransactionCommitsAndAborts)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    EXPECT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    EXPECT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.begins"), 2u);
}

TEST_F(TxFixture, SurfaceRejectsMisuse)
{
    // Ops and commit/abort require an open tx.
    EXPECT_EQ(alloc_->txCommit(*ctx_), NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->txAbort(*ctx_), NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->txAlloc(*ctx_, 64, nullptr), 0u);
    EXPECT_EQ(alloc_->txFree(*ctx_, 4096), NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(0), 1),
              NvStatus::InvalidArgument);

    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    // Nested begin.
    EXPECT_EQ(alloc_->txBegin(*ctx_), NvStatus::InvalidArgument);
    // txWrite target validation: null, volatile, misaligned.
    uint64_t volatile_word = 0;
    EXPECT_EQ(alloc_->txWrite(*ctx_, nullptr, 1),
              NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->txWrite(*ctx_, &volatile_word, 1),
              NvStatus::InvalidArgument);
    auto *mis = reinterpret_cast<uint64_t *>(
        static_cast<char *>(alloc_->at(kCacheLine)) + 4);
    EXPECT_EQ(alloc_->txWrite(*ctx_, mis, 1), NvStatus::InvalidArgument);
    // Zero-size tx alloc.
    EXPECT_EQ(alloc_->txAlloc(*ctx_, 0, nullptr), 0u);
    ASSERT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);
    EXPECT_GE(ctlValue(*alloc_, "stats.tx.rejected"), 7u);
}

TEST_F(TxFixture, VolatileWhereIsRefusedAndTxStillCommits)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    // The run is the attach word's only record: a word outside the
    // device has no offset to journal.
    uint64_t stack_word = 0;
    uint64_t seq = ctx_->wal.sequence();
    EXPECT_EQ(alloc_->txAlloc(*ctx_, 64, &stack_word), 0u);
    EXPECT_EQ(alloc_->lastStatus(), NvStatus::InvalidArgument);
    EXPECT_EQ(ctx_->wal.sequence(), seq) << "nothing journaled";
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.staged_blocks"), 0u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.ops_alloc"), 0u);

    uint64_t blk = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(blk, 0u);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_EQ(*alloc_->rootWord(0), blk);
    EXPECT_EQ(stack_word, 0u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.commits"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.staged_blocks"), 0u);
}

TEST_F(TxFixture, OversizeTransactionRefused)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    for (unsigned i = 0; i < kTxMaxOps; ++i)
        ASSERT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(0), i),
                  NvStatus::Ok)
            << i;
    EXPECT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(0), 99),
              NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->txAlloc(*ctx_, 64, nullptr), 0u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.oversize"), 2u);
    ASSERT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);
    EXPECT_EQ(*alloc_->rootWord(0), 0u) << "all writes rolled back";
}

TEST_F(TxFixture, PlainOpsRejectedWhileTxOpen)
{
    uint64_t pre = alloc_->allocOffset(*ctx_, 64, nullptr);
    ASSERT_NE(pre, 0u);
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    EXPECT_EQ(alloc_->allocOffset(*ctx_, 64, nullptr), 0u);
    EXPECT_EQ(alloc_->lastStatus(), NvStatus::InvalidArgument);
    EXPECT_EQ(alloc_->freeOffset(*ctx_, pre, nullptr),
              NvStatus::InvalidArgument);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.plain_ops_rejected"), 2u);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    // Resolved: the plain path works again.
    EXPECT_EQ(alloc_->freeOffset(*ctx_, pre, nullptr), NvStatus::Ok);
}

TEST_F(TxFixture, StagedBlockRejectsPlainFreeFromOtherThread)
{
    ThreadCtx *other = alloc_->attachThread();
    ASSERT_NE(other, nullptr);

    uint64_t pre = alloc_->allocOffset(*ctx_, 64, nullptr);
    ASSERT_NE(pre, 0u);
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    ASSERT_EQ(alloc_->txFree(*ctx_, pre), NvStatus::Ok);

    // The tx-freed block is staged: a racing plain free from another
    // thread is rejected by the ordered validator with its own kind.
    EXPECT_EQ(alloc_->freeOffset(*other, pre, nullptr),
              NvStatus::InvalidFree);
    EXPECT_EQ(ctlValue(*alloc_, "stats.hardening.tx_staged_frees"), 1u);

    // Same for a tx-allocated (unpublished) block.
    uint64_t fresh = alloc_->txAlloc(*ctx_, 64, nullptr);
    ASSERT_NE(fresh, 0u);
    EXPECT_EQ(alloc_->freeOffset(*other, fresh, nullptr),
              NvStatus::InvalidFree);
    EXPECT_EQ(ctlValue(*alloc_, "stats.hardening.tx_staged_frees"), 2u);

    // Double-stage: the same block cannot be tx-freed twice.
    EXPECT_EQ(alloc_->txFree(*ctx_, pre), NvStatus::InvalidFree);

    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_FALSE(blockIsLive(*alloc_, pre));
    alloc_->detachThread(other);
}

TEST_F(TxFixture, TxFreeValidatesLikePlainFree)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    // Wild and misaligned targets — rejected, nothing staged, nothing
    // journaled.
    EXPECT_EQ(alloc_->txFree(*ctx_, dev_->size() + 64),
              NvStatus::InvalidFree);
    uint64_t blk = alloc_->txAlloc(*ctx_, 64, nullptr);
    ASSERT_NE(blk, 0u);
    EXPECT_EQ(alloc_->txFree(*ctx_, blk + 8), NvStatus::InvalidFree);
    ASSERT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.staged_blocks"), 0u);

    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST_F(TxFixture, DetachAbortsOpenTransaction)
{
    ThreadCtx *t = alloc_->attachThread();
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(alloc_->txBegin(*t), NvStatus::Ok);
    uint64_t blk = alloc_->txAlloc(*t, 64, alloc_->rootWord(0));
    ASSERT_NE(blk, 0u);
    alloc_->detachThread(t);
    EXPECT_EQ(*alloc_->rootWord(0), 0u);
    EXPECT_FALSE(blockIsLive(*alloc_, blk));
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.aborts"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.open"), 0u);
}

/**
 * Open a transaction holding two 64 B blocks (attached to rootWord(2)
 * and rootWord(3)) and a `morph_size` block (rootWord(4)) whose refill
 * morphs the 64 B blocks' slab: a failed 128 MiB alloc plus a
 * maintenance step flag a tcache trim, so the last txAlloc drains the
 * tcache, which leaves the 64 B slab holding only the two staged
 * blocks, and its refill morphs that slab. The staged 64 B blocks are
 * then old-geometry blocks.
 */
std::vector<uint64_t>
stageBlocksOfMorphedSlab(NvAlloc &alloc, ThreadCtx &ctx, size_t morph_size)
{
    std::vector<uint64_t> small;
    EXPECT_EQ(alloc.txBegin(ctx), NvStatus::Ok);
    for (unsigned i = 0; i < 2; ++i)
        small.push_back(alloc.txAlloc(ctx, 64, alloc.rootWord(2 + i)));
    EXPECT_EQ(alloc.txAlloc(ctx, size_t{128} << 20, nullptr), 0u);
    alloc.maintenance().step();
    EXPECT_NE(alloc.txAlloc(ctx, morph_size, alloc.rootWord(4)), 0u);
    for (uint64_t off : small) {
        auto *slab = static_cast<VSlab *>(alloc.slabRadix().get(off));
        unsigned old_idx = 0;
        EXPECT_TRUE(off && slab && slab->isOldBlock(off, old_idx))
            << "the staged 64 B block's slab did not morph";
    }
    return small;
}

TEST_F(TxFixture, CommitPublishesBlocksOfSlabMorphedUnderOpenTx)
{
    std::vector<uint64_t> small =
        stageBlocksOfMorphedSlab(*alloc_, *ctx_, 4096);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    for (unsigned i = 0; i < small.size(); ++i) {
        EXPECT_EQ(*alloc_->rootWord(2 + i), small[i]) << "block " << i;
        EXPECT_TRUE(blockIsLive(*alloc_, small[i])) << "block " << i;
    }
    EXPECT_NE(*alloc_->rootWord(4), 0u);
    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST_F(TxFixture, RecoveryRedoPublishesBlocksOfMorphedSlab)
{
    std::vector<uint64_t> small =
        stageBlocksOfMorphedSlab(*alloc_, *ctx_, 128);
    // One block sits at a 128 B index of the new geometry, the other
    // between two: the redo meets both kinds of old-geometry block.
    auto *slab = static_cast<VSlab *>(alloc_->slabRadix().get(small[0]));
    ASSERT_NE(slab, nullptr);
    ASSERT_EQ(unsigned(slab->blockIndexOf(small[0]) < slab->capacity()) +
                  unsigned(slab->blockIndexOf(small[1]) < slab->capacity()),
              1u);
    // The commit record's flush is the last to land: recovery redoes
    // every publish of the run.
    dev_->armCrashAtFlush(1);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    ASSERT_TRUE(dev_->crashTriggered());
    alloc_->simulateCrash();
    alloc_.reset();
    alloc_ = NvAlloc::openOrDie(*dev_, envConfig());
    ctx_ = alloc_->attachThread();
    EXPECT_EQ(alloc_->lastRecovery().tx_committed, 1u);
    for (unsigned i = 0; i < small.size(); ++i) {
        EXPECT_EQ(*alloc_->rootWord(2 + i), small[i]) << "block " << i;
        EXPECT_TRUE(blockIsLive(*alloc_, small[i])) << "block " << i;
    }
    EXPECT_NE(*alloc_->rootWord(4), 0u);
    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST(TxRing, RefusedLargeAllocsLeaveTheRunInsideTheRing)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    dcfg.shadow = true;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = envConfig();
    cfg.log_file_bytes = 16 * 1024;
    auto alloc = NvAlloc::openOrDie(dev, cfg);
    ThreadCtx *ctx = alloc->attachThread();
    ASSERT_NE(ctx, nullptr);

    // Fill the bookkeeping log with live entries; the first extent
    // holds the words the transaction writes.
    uint64_t first = 0;
    while (uint64_t off = alloc->allocOffset(*ctx, 32 * 1024, nullptr)) {
        if (first == 0)
            first = off;
    }
    ASSERT_EQ(alloc->lastStatus(), NvStatus::LogExhausted);
    ASSERT_NE(first, 0u);
    constexpr unsigned kWords = kTxMaxOps - 1;
    auto *w = static_cast<uint64_t *>(alloc->at(first));
    std::memset(w, 0, kWords * sizeof(uint64_t));
    dev.persistFence(w, kWords * sizeof(uint64_t), TimeKind::FlushData);

    ASSERT_EQ(alloc->txBegin(*ctx), NvStatus::Ok);
    uint64_t seq0 = ctx->wal.sequence();
    for (unsigned i = 0; i < kWords; ++i)
        ASSERT_EQ(alloc->txWrite(*ctx, &w[i], i + 1), NvStatus::Ok) << i;
    // Each refusal journals an intent twice (before and after the
    // reclaim) and retires it both times: the run must not grow.
    for (unsigned i = 0; i < 2; ++i) {
        EXPECT_EQ(alloc->txAlloc(*ctx, 32 * 1024, nullptr), 0u);
        EXPECT_EQ(alloc->lastStatus(), NvStatus::LogExhausted);
    }
    EXPECT_EQ(ctx->wal.sequence() - seq0, kWords);

    alloc->simulateCrash();
    alloc.reset();
    alloc = NvAlloc::openOrDie(dev, cfg);
    EXPECT_EQ(alloc->lastRecovery().tx_rolled_back, 1u);
    for (unsigned i = 0; i < kWords; ++i)
        EXPECT_EQ(w[i], 0u) << "word " << i << " not rolled back";
}

TEST_F(TxFixture, FastPathJournalCostUnchanged)
{
    // The non-tx fast path must stay at exactly one WAL entry (one
    // flush) per plain alloc and per plain free; a tx op costs the
    // same one entry, plus two control records for the whole group:
    // the commit mark and, after the apply loop, the applied seal
    // that keeps recovery from redoing an already-applied tx. The
    // group cost is O(1), not O(ops).
    uint64_t pre = alloc_->allocOffset(*ctx_, 64, nullptr);
    ASSERT_NE(pre, 0u);
    uint64_t s0 = ctx_->wal.sequence();
    uint64_t a = alloc_->allocOffset(*ctx_, 64, nullptr);
    ASSERT_NE(a, 0u);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 1) << "plain alloc = 1 entry";
    EXPECT_EQ(alloc_->freeOffset(*ctx_, a, nullptr), NvStatus::Ok);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 2) << "plain free = 1 entry";

    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 2) << "begin journals nothing";
    uint64_t b = alloc_->txAlloc(*ctx_, 64, nullptr);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 3) << "tx alloc = 1 entry";
    ASSERT_EQ(alloc_->txFree(*ctx_, pre), NvStatus::Ok);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 4) << "tx free = 1 entry";
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctx_->wal.sequence(), s0 + 6)
        << "commit = commit mark + applied seal, apply journals nothing";
}

// ---------------------------------------------------------------------
// Live resolution feeds the resolving thread's tcache
// ---------------------------------------------------------------------

/**
 * Allocate plain `size` blocks, kept live in `kept`, until at least
 * `min_kept` are kept and this thread's cache of their class holds
 * exactly `cached` blocks; returns the class. With at most one block
 * cached, the next pop does not depend on the sub-tcache cursor. The
 * kept blocks fill their slab past the morph threshold, so a free into
 * it is not sent straight back to the slab (gateRetire's
 * keep-unpinned rule).
 */
unsigned
leaveCachedBlocks(NvAlloc &alloc, ThreadCtx &ctx, size_t size,
                  unsigned cached, size_t min_kept,
                  std::vector<uint64_t> &kept)
{
    unsigned cls = 0;
    do {
        uint64_t off = alloc.allocOffset(ctx, size, nullptr);
        if (off == 0) {
            ADD_FAILURE() << "plain alloc failed after " << kept.size();
            break;
        }
        kept.push_back(off);
        cls = static_cast<VSlab *>(alloc.slabRadix().get(off))->sizeClass();
    } while (kept.size() < min_kept || ctx.tcache.count(cls) != cached);
    return cls;
}

/** The delayed-reuse quarantine, which the CI hardening legs switch
 *  on, takes precedence over the tcache route: these tests pin the
 *  tcache route with it off. */
class TxTcacheFixture : public TxFixture
{
  protected:
    NvAllocConfig
    config() const override
    {
        NvAllocConfig cfg = envConfig();
        cfg.quarantine_depth = 0;
        return cfg;
    }
};

TEST_F(TxTcacheFixture, ReplacingTransactionsRecycleTheFreedBlock)
{
    // A KV update in miniature: each transaction frees the block the
    // previous one published and allocates its replacement. The commit
    // apply hands the freed block to this thread's tcache, so the next
    // transaction's allocation takes it back: no miss, no refill.
    constexpr unsigned kTxs = 200;
    std::vector<uint64_t> kept;
    leaveCachedBlocks(*alloc_, *ctx_, 64, 1, 400, kept);
    uint64_t cur = kept.back();
    uint64_t freed = 0;
    uint64_t miss = 0, refills = 0;
    unsigned reused = 0;
    for (unsigned k = 1; k <= kTxs; ++k) {
        ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
        ASSERT_EQ(alloc_->txFree(*ctx_, cur), NvStatus::Ok);
        uint64_t next = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(0));
        ASSERT_NE(next, 0u);
        reused += next == freed;
        ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
        ASSERT_EQ(*alloc_->rootWord(0), next);
        ASSERT_FALSE(blockIsLive(*alloc_, cur)) << "tx " << k;
        freed = cur;
        cur = next;
        if (k == 1) {
            miss = ctlValue(*alloc_, "stats.tcache.miss");
            refills = ctlValue(*alloc_, "stats.slab.refills");
        }
    }
    EXPECT_EQ(reused, kTxs - 1)
        << "a tx's allocation did not return the block the previous "
           "tx freed";
    EXPECT_EQ(ctlValue(*alloc_, "stats.tcache.miss"), miss);
    EXPECT_EQ(ctlValue(*alloc_, "stats.slab.refills"), refills);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.commits"), kTxs);
    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST_F(TxTcacheFixture, AbortedAllocIsTheNextAllocsBlock)
{
    std::vector<uint64_t> kept;
    leaveCachedBlocks(*alloc_, *ctx_, 64, 1, 400, kept);
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    uint64_t aborted = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(1));
    ASSERT_NE(aborted, 0u);
    ASSERT_EQ(alloc_->txAbort(*ctx_), NvStatus::Ok);
    EXPECT_FALSE(blockIsLive(*alloc_, aborted));
    uint64_t miss = ctlValue(*alloc_, "stats.tcache.miss");

    // The rollback returned the block to this thread's tcache.
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    EXPECT_EQ(alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(1)), aborted);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tcache.miss"), miss);
    EXPECT_EQ(*alloc_->rootWord(1), aborted);
    EXPECT_TRUE(blockIsLive(*alloc_, aborted));
    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST_F(TxFixture, RecoveryRedoLeavesNoBlockInAnyTcache)
{
    // The commit record lands and the apply does not: recovery redoes
    // the run, and its free has no thread whose tcache could take the
    // block, so the block goes back to its slab.
    uint64_t old = alloc_->allocOffset(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(old, 0u);
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    ASSERT_EQ(alloc_->txFree(*ctx_, old), NvStatus::Ok);
    uint64_t next = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(next, 0u);
    dev_->armCrashAtFlush(1);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    ASSERT_TRUE(dev_->crashTriggered());
    alloc_->simulateCrash();
    ctx_ = nullptr;
    alloc_.reset();
    alloc_ = NvAlloc::openOrDie(*dev_, config());

    EXPECT_EQ(alloc_->lastRecovery().tx_committed, 1u);
    EXPECT_EQ(*alloc_->rootWord(0), next);
    EXPECT_TRUE(blockIsLive(*alloc_, next));
    EXPECT_FALSE(blockIsLive(*alloc_, old));
    uint64_t lent = 0;
    for (unsigned i = 0; i < alloc_->numArenas(); ++i)
        alloc_->arena(i).forEachSlab(
            [&](VSlab *slab) { lent += slab->lentBlocks(); });
    EXPECT_EQ(lent, 0u) << "recovery lent a block to a tcache";
    AuditReport rep = HeapAuditor(*alloc_).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST(TxConcurrent, EightThreadRoundTripsCountExactly)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    auto alloc = NvAlloc::openOrDie(dev, envConfig());

    // Each thread owns one persistent word; every round replaces the
    // block it names in one transaction: allocate the new block,
    // point the word at it, free the old one, commit.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 64;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            ThreadCtx *ctx = alloc->attachThread();
            if (!ctx) {
                failures.fetch_add(1);
                return;
            }
            uint64_t anchor = alloc->allocOffset(*ctx, 64, nullptr);
            uint64_t first = alloc->allocOffset(*ctx, 128, nullptr);
            if (!anchor || !first) {
                failures.fetch_add(1);
                alloc->detachThread(ctx);
                return;
            }
            auto *word = static_cast<uint64_t *>(alloc->at(anchor));
            *word = first;
            for (unsigned r = 0; r < kRounds; ++r) {
                uint64_t old = *word;
                bool ok = alloc->txBegin(*ctx) == NvStatus::Ok;
                uint64_t blk = ok ? alloc->txAlloc(*ctx, 128, nullptr) : 0;
                ok = blk && alloc->txWrite(*ctx, word, blk) == NvStatus::Ok &&
                     alloc->txFree(*ctx, old) == NvStatus::Ok &&
                     alloc->txCommit(*ctx) == NvStatus::Ok;
                if (!ok)
                    failures.fetch_add(1);
            }
            alloc->freeOffset(*ctx, *word, nullptr);
            alloc->freeOffset(*ctx, anchor, nullptr);
            alloc->detachThread(ctx);
        });
    }
    for (auto &w : workers)
        w.join();

    ASSERT_EQ(failures.load(), 0u);
    const uint64_t n = kThreads * kRounds;
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.begins"), n);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.commits"), n);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.ops_alloc"), n);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.ops_write"), n);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.ops_free"), n);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.aborts"), 0u);
    EXPECT_EQ(ctlValue(*alloc, "stats.tx.open"), 0u);
}

TEST(TxConcurrent, RacingTxFreesOfOneBlockStageItOnce)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    auto alloc = NvAlloc::openOrDie(dev, envConfig());
    ThreadCtx *owner = alloc->attachThread();
    ASSERT_NE(owner, nullptr);

    // Every round, eight threads open a transaction and txFree the
    // same published block at once. The staged registry lets exactly
    // one stage it; the winner commits only after every thread has
    // tried, so each loser meets the staged block, not a freed one.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 50;
    std::barrier<> sync(kThreads + 1);
    std::atomic<uint64_t> target{0};
    std::atomic<unsigned> wins{0}, staged_rejects{0}, other{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            ThreadCtx *ctx = alloc->attachThread();
            for (unsigned r = 0; r < kRounds; ++r) {
                sync.arrive_and_wait(); // block published
                bool open = ctx && alloc->txBegin(*ctx) == NvStatus::Ok;
                NvStatus st = open ? alloc->txFree(*ctx, target.load())
                                   : NvStatus::InvalidArgument;
                if (st == NvStatus::Ok)
                    wins.fetch_add(1);
                else if (st == NvStatus::InvalidFree)
                    staged_rejects.fetch_add(1);
                else
                    other.fetch_add(1);
                sync.arrive_and_wait(); // every thread has tried
                if (open && (st == NvStatus::Ok
                                 ? alloc->txCommit(*ctx)
                                 : alloc->txAbort(*ctx)) != NvStatus::Ok)
                    other.fetch_add(1);
                sync.arrive_and_wait(); // every tx resolved
            }
            if (ctx)
                alloc->detachThread(ctx);
        });
    }

    for (unsigned r = 0; r < kRounds; ++r) {
        // A plain allocation: published the moment it returns. (No
        // ASSERT before the barriers: the workers wait on them.)
        uint64_t blk = alloc->allocOffset(*owner, 64, nullptr);
        EXPECT_NE(blk, 0u);
        target.store(blk);
        unsigned wins_before = wins.load();
        uint64_t rejects_before =
            ctlValue(*alloc, "stats.hardening.tx_staged_frees");
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        EXPECT_EQ(wins.load() - wins_before, 1u) << "round " << r;
        EXPECT_EQ(ctlValue(*alloc, "stats.hardening.tx_staged_frees") -
                      rejects_before,
                  kThreads - 1)
            << "round " << r;
        EXPECT_EQ(ctlValue(*alloc, "stats.tx.open"), 0u);
        EXPECT_EQ(ctlValue(*alloc, "stats.tx.staged_blocks"), 0u);
        EXPECT_FALSE(blockIsLive(*alloc, blk)) << "round " << r;
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(wins.load(), kRounds);
    EXPECT_EQ(staged_rejects.load(), kRounds * (kThreads - 1));
    EXPECT_EQ(other.load(), 0u);
    AuditReport rep = HeapAuditor(*alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    alloc->detachThread(owner);
}

TEST_F(TxFixture, DegradedHeapRejectsTx)
{
    // A Failed-mode heap must reject tx entry with InvalidArgument
    // (errno contract: EINVAL, not ECORRUPT) and touch nothing.
    alloc_->detachThread(ctx_);
    ctx_ = nullptr;
    alloc_->dirtyRestart(); // force the recovery path on reopen
    alloc_.reset();

    // Corrupt the superblock body so the reopen degrades.
    auto *sb_bytes = static_cast<uint8_t *>(dev_->at(0));
    sb_bytes[16] ^= 0xff;
    auto degraded_h = NvAlloc::openOrDie(*dev_, envConfig());
    NvAlloc &degraded = *degraded_h;
    ASSERT_EQ(degraded.openStatus(), NvStatus::CorruptMetadata);
    EXPECT_EQ(degraded.txRejected(), NvStatus::InvalidArgument);
    EXPECT_EQ(degraded.lastStatus(), NvStatus::InvalidArgument);
    EXPECT_GE(ctlValue(degraded, "stats.tx.rejected"), 1u);
}

// ---------------------------------------------------------------------
// Auditor: tx invariants
// ---------------------------------------------------------------------

TEST_F(TxFixture, LiveOpenTransactionAuditsClean)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    uint64_t blk = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(blk, 0u);
    ASSERT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(1), 7),
              NvStatus::Ok);

    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.open"), 1u);

    HeapAuditor auditor(*alloc_);
    AuditReport rep = auditor.audit();
    EXPECT_EQ(rep.violations(), 0u)
        << "open tx must not read as an orphan\n"
        << rep.summary();
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);
    EXPECT_EQ(ctlValue(*alloc_, "stats.tx.open"), 0u);
    rep = auditor.audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST_F(TxFixture, StompedCommitRecordIsOrphanAndRepairable)
{
    ASSERT_EQ(alloc_->txBegin(*ctx_), NvStatus::Ok);
    uint64_t blk = alloc_->txAlloc(*ctx_, 64, alloc_->rootWord(0));
    ASSERT_NE(blk, 0u);
    ASSERT_EQ(alloc_->txWrite(*ctx_, alloc_->rootWord(1), 7),
              NvStatus::Ok);
    ASSERT_EQ(alloc_->txCommit(*ctx_), NvStatus::Ok);

    // Stomp the crc of both control records — the commit record and
    // the applied seal (either intact one on its own still resolves
    // the run): the run turns into op entries whose transaction can no
    // longer be resolved.
    auto *ring = static_cast<WalEntry *>(
        dev_->at(alloc_->walRingOffset(ctx_->wal_slot)));
    unsigned stomped = 0;
    for (unsigned s = 0; s < kWalRingEntries; ++s) {
        if ((ring[s].block_op & 3) != kWalNone &&
            (ring[s].tx_mark == kWalTxCommit ||
             ring[s].tx_mark == kWalTxApplied)) {
            ring[s].crc ^= 0xdead;
            ++stomped;
        }
    }
    ASSERT_EQ(stomped, 2u);

    HeapAuditor auditor(*alloc_);
    AuditReport rep = auditor.audit();
    EXPECT_GE(rep.wal_entry_bad, 1u) << rep.summary();
    EXPECT_GE(rep.tx_orphan_entries, 1u) << rep.summary();

    AuditReport fixed = auditor.repair();
    EXPECT_GE(fixed.repaired_tx_entries, 2u) << fixed.summary();
    rep = auditor.audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    // The committed state itself is untouched by the scrub.
    EXPECT_TRUE(blockIsLive(*alloc_, blk));
    EXPECT_EQ(*alloc_->rootWord(1), 7u);
}

// ---------------------------------------------------------------------
// Every-point crash sweep
// ---------------------------------------------------------------------

constexpr unsigned kPre = 4;    //!< pre-allocated blocks a tx can free
constexpr unsigned kSlots = 12; //!< persistent pointer words in use

enum class TxShape
{
    Empty,       //!< begin + commit, no ops
    OneSmall,    //!< a single small allocation
    Mixed,       //!< small + large allocs, writes, frees
    AbortPath,   //!< ops then abort instead of commit
    Interleaved, //!< two thread contexts, two open txs interleaved
    Recycle,     //!< allocs, fills and publishes the block a committed
                 //!< tx freed into this thread's tcache
};

const char *
shapeName(TxShape s)
{
    switch (s) {
    case TxShape::Empty: return "empty";
    case TxShape::OneSmall: return "one-small";
    case TxShape::Mixed: return "mixed";
    case TxShape::AbortPath: return "abort";
    case TxShape::Interleaved: return "interleaved";
    case TxShape::Recycle: return "recycle";
    }
    return "?";
}

/** One staged effect and how to recognise it after recovery. Slot
 *  indices refer to the persistent slot table the workload allocates
 *  (its offset rides in rootWord(0)). */
struct Effect
{
    enum class Kind
    {
        SmallAlloc,
        LargeAlloc,
        Free,
        Write,
    };
    Kind kind;
    unsigned slot;  //!< publish/target slot-table index
    uint64_t off;   //!< block offset (allocs/frees)
    uint64_t old_v; //!< write undo value
    uint64_t new_v; //!< write redo value
};

/** Visible = the effect's committed state is present. */
bool
effectVisible(NvAlloc &a, uint64_t *slots, const Effect &e)
{
    switch (e.kind) {
    case Effect::Kind::SmallAlloc:
        return slots[e.slot] == e.off && blockIsLive(a, e.off);
    case Effect::Kind::LargeAlloc:
        return slots[e.slot] == e.off && largeIsLive(a, e.off);
    case Effect::Kind::Free:
        return !blockIsLive(a, e.off);
    case Effect::Kind::Write:
        return slots[e.slot] == e.new_v;
    }
    return false;
}

/** Invisible = the pre-transaction state is intact. */
bool
effectInvisible(NvAlloc &a, uint64_t *slots, const Effect &e)
{
    switch (e.kind) {
    case Effect::Kind::SmallAlloc:
        return slots[e.slot] == 0 && !blockIsLive(a, e.off);
    case Effect::Kind::LargeAlloc:
        return slots[e.slot] == 0 && !largeIsLive(a, e.off);
    case Effect::Kind::Free:
        return blockIsLive(a, e.off);
    case Effect::Kind::Write:
        return slots[e.slot] == e.old_v;
    }
    return false;
}

/** The sweep's heap settings: the recycle shape pins the tcache route
 *  (TxTcacheFixture). */
NvAllocConfig
sweepConfig(TxShape shape)
{
    NvAllocConfig cfg = envConfig();
    if (shape == TxShape::Recycle)
        cfg.quarantine_depth = 0;
    return cfg;
}

constexpr char kRecycledContents[] = "written by the recycling tx";

/**
 * Run one crash point: seeded pre-state, arm the crash at the nth
 * flush/fence, run the shape's transaction, simulate the crash
 * (whether or not the arming triggered — a never-triggered run is the
 * post-commit crash point and ends the sweep), recover, and assert:
 *
 *   all-or-nothing  every effect of a tx is visible or every one is
 *                   invisible — per transaction, never a mix;
 *   no leak         small-block census matches the outcome exactly;
 *   audit clean     a full HeapAuditor walk reports zero violations;
 *   usable          the recovered heap serves plain AND tx traffic.
 *
 * Returns true if the armed crash triggered (=> more points remain).
 */
bool
runTxCrashPoint(TxShape shape, bool at_fence, unsigned nth)
{
    SCOPED_TRACE(::testing::Message()
                 << shapeName(shape)
                 << (at_fence ? " fence=" : " flush=") << nth);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    std::vector<Effect> fx;  //!< primary tx's effects
    std::vector<Effect> fx2; //!< second tx's effects (Interleaved)
    uint64_t pre[kPre] = {};
    uint64_t table_off = 0;
    uint64_t live_before = 0;
    bool triggered = false;

    {
        auto alloc_h = NvAlloc::openOrDie(dev, sweepConfig(shape));
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        if (ctx == nullptr) {
            ADD_FAILURE() << "attach failed during setup";
            return false;
        }
        // Pre-state: a slot table of persistent pointer words (the
        // superblock only carries 8 roots), blocks the tx will free,
        // and seeded write words.
        table_off =
            alloc.allocOffset(*ctx, kSlots * 8, alloc.rootWord(0));
        if (table_off == 0) {
            ADD_FAILURE() << "slot table allocation failed";
            return false;
        }
        auto *slots = static_cast<uint64_t *>(alloc.at(table_off));
        std::memset(slots, 0, kSlots * 8);
        slots[6] = 0x1111;
        slots[7] = 0x3333;
        dev.persistFence(slots, kSlots * 8, TimeKind::FlushData);
        for (unsigned i = 0; i < kPre; ++i) {
            pre[i] =
                alloc.allocOffset(*ctx, 64 + 32 * i, &slots[8 + i]);
            if (pre[i] == 0) {
                ADD_FAILURE() << "pre-block " << i << " failed";
                return false;
            }
        }
        if (shape == TxShape::Recycle) {
            // Before the crash is armed, a committed tx frees pre[0]
            // into this thread's tcache, left holding no other block
            // of its class.
            std::vector<uint64_t> kept;
            leaveCachedBlocks(alloc, *ctx, 64, 0, 400, kept);
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            EXPECT_EQ(alloc.txFree(*ctx, pre[0]), NvStatus::Ok);
            EXPECT_EQ(alloc.txWrite(*ctx, &slots[8], 0), NvStatus::Ok);
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
        }
        live_before = liveSmallBlocks(alloc);

        if (at_fence)
            dev.armCrashAtFence(nth);
        else
            dev.armCrashAtFlush(nth);

        auto tx_alloc = [&](ThreadCtx &c, size_t size,
                            Effect::Kind kind, unsigned slot,
                            std::vector<Effect> &out) {
            uint64_t off = alloc.txAlloc(c, size, &slots[slot]);
            EXPECT_NE(off, 0u) << "txAlloc size " << size;
            if (off)
                out.push_back({kind, slot, off, 0, 0});
        };
        auto tx_free = [&](ThreadCtx &c, unsigned i,
                           std::vector<Effect> &out) {
            // The documented pairing: stage the free and clear the
            // owning pointer word in the same atomic unit.
            if (alloc.txFree(c, pre[i]) == NvStatus::Ok &&
                alloc.txWrite(c, &slots[8 + i], 0) == NvStatus::Ok) {
                out.push_back(
                    {Effect::Kind::Free, 8 + i, pre[i], 0, 0});
                out.push_back(
                    {Effect::Kind::Write, 8 + i, 0, pre[i], 0});
            } else {
                ADD_FAILURE() << "tx free of pre-block " << i;
            }
        };
        auto tx_write = [&](ThreadCtx &c, unsigned slot, uint64_t oldv,
                            uint64_t newv, std::vector<Effect> &out) {
            if (alloc.txWrite(c, &slots[slot], newv) == NvStatus::Ok)
                out.push_back(
                    {Effect::Kind::Write, slot, 0, oldv, newv});
            else
                ADD_FAILURE() << "tx write to slot " << slot;
        };
        auto small = Effect::Kind::SmallAlloc;
        auto big = Effect::Kind::LargeAlloc;

        switch (shape) {
        case TxShape::Empty:
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
            break;
        case TxShape::OneSmall:
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            tx_alloc(*ctx, 96, small, 0, fx);
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
            break;
        case TxShape::Mixed:
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            tx_alloc(*ctx, 48, small, 0, fx);
            tx_alloc(*ctx, 80 * 1024, big, 1, fx);
            tx_write(*ctx, 6, 0x1111, 0x2222, fx);
            tx_free(*ctx, 0, fx);
            tx_alloc(*ctx, 512, small, 2, fx);
            tx_free(*ctx, 1, fx);
            tx_write(*ctx, 7, 0x3333, 0x4444, fx);
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
            break;
        case TxShape::AbortPath:
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            tx_alloc(*ctx, 48, small, 0, fx);
            tx_write(*ctx, 6, 0x1111, 0x2222, fx);
            tx_free(*ctx, 0, fx);
            EXPECT_EQ(alloc.txAbort(*ctx), NvStatus::Ok);
            break;
        case TxShape::Interleaved: {
            ThreadCtx *ctx2 = alloc.attachThread();
            if (ctx2 == nullptr) {
                ADD_FAILURE() << "second attach failed";
                return false;
            }
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            EXPECT_EQ(alloc.txBegin(*ctx2), NvStatus::Ok);
            tx_alloc(*ctx, 48, small, 0, fx);
            tx_alloc(*ctx2, 96, small, 1, fx2);
            tx_free(*ctx, 0, fx);
            tx_write(*ctx2, 6, 0x1111, 0x2222, fx2);
            tx_free(*ctx2, 1, fx2);
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
            // The second tx stays open across the crash: recovery
            // must roll its run back regardless of how far tx 1 got.
            break;
        }
        case TxShape::Recycle:
            EXPECT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
            tx_alloc(*ctx, 64, small, 0, fx);
            if (!fx.empty()) {
                EXPECT_EQ(fx[0].off, pre[0])
                    << "the tx did not take the freed block from the "
                       "tcache";
                void *p = alloc.at(fx[0].off);
                std::memcpy(p, kRecycledContents, sizeof kRecycledContents);
                dev.persist(p, sizeof kRecycledContents,
                            TimeKind::FlushData);
            }
            EXPECT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
            break;
        }
        triggered = dev.crashTriggered();
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, sweepConfig(shape));
    NvAlloc &again = *again_h;
    const RecoveryReport &rec = again.lastRecovery();
    EXPECT_TRUE(rec.performed);
    auto *slots = static_cast<uint64_t *>(again.at(table_off));

    // All-or-nothing, per transaction.
    auto check_atomic = [&](const std::vector<Effect> &effects,
                            const char *tag, bool must_be_invisible) {
        if (effects.empty())
            return;
        unsigned visible = 0, invisible = 0;
        std::string detail;
        for (const Effect &e : effects) {
            bool vis = effectVisible(again, slots, e);
            bool invis = effectInvisible(again, slots, e);
            if (vis)
                ++visible;
            else if (invis)
                ++invisible;
            detail += " [kind=" + std::to_string(int(e.kind)) +
                      " slot=" + std::to_string(e.slot) +
                      " word=" + std::to_string(slots[e.slot]) +
                      (vis ? " V]" : invis ? " I]" : " TORN]");
        }
        EXPECT_TRUE(visible == effects.size() ||
                    invisible == effects.size())
            << tag << ": torn transaction — " << visible << "/"
            << effects.size() << " effects visible, " << invisible
            << " invisible;" << detail
            << "; tx_committed=" << rec.tx_committed
            << " tx_rolled_back=" << rec.tx_rolled_back
            << " wal_rejected=" << rec.wal_rejected;
        if (must_be_invisible) {
            EXPECT_EQ(invisible, effects.size())
                << tag << ": aborted tx left effects behind";
        }
    };
    check_atomic(fx, "tx1", shape == TxShape::AbortPath);
    check_atomic(fx2, "tx2", /*must_be_invisible=*/false);

    // No leak: the small-block census must equal the pre-state plus
    // exactly the committed small effects. (tx2 in the Interleaved
    // shape was still open at the crash, so any of its staged blocks
    // surviving would surface here.)
    bool tx1_visible =
        !fx.empty() && effectVisible(again, slots, fx.front());
    bool tx2_visible =
        !fx2.empty() && effectVisible(again, slots, fx2.front());
    int64_t expect = int64_t(live_before);
    auto tally = [&](const std::vector<Effect> &effects, bool visible) {
        if (!visible)
            return;
        for (const Effect &e : effects) {
            if (e.kind == Effect::Kind::SmallAlloc)
                ++expect;
            else if (e.kind == Effect::Kind::Free)
                --expect;
        }
    };
    tally(fx, tx1_visible);
    tally(fx2, tx2_visible);
    // A recycled block is published only with the new contents.
    if (shape == TxShape::Recycle && tx1_visible) {
        EXPECT_EQ(std::memcmp(again.at(fx[0].off), kRecycledContents,
                              sizeof kRecycledContents),
                  0)
            << "recycled block published without the tx's contents";
    }
    EXPECT_EQ(int64_t(liveSmallBlocks(again)), expect)
        << "leak/loss; tx1_visible=" << tx1_visible
        << " tx2_visible=" << tx2_visible
        << " tx_committed=" << rec.tx_committed
        << " tx_rolled_back=" << rec.tx_rolled_back;

    // Audit clean: no orphaned tx records, no staged/free conflicts.
    AuditReport audit = HeapAuditor(again).audit();
    EXPECT_EQ(audit.violations(), 0u) << audit.summary();

    // Usable: plain traffic, then a fresh transaction, both work.
    ThreadCtx *ctx = again.attachThread();
    if (ctx != nullptr) {
        uint64_t probe = again.allocOffset(*ctx, 128, nullptr);
        EXPECT_NE(probe, 0u);
        EXPECT_EQ(again.freeOffset(*ctx, probe, nullptr),
                  NvStatus::Ok);
        EXPECT_EQ(again.txBegin(*ctx), NvStatus::Ok);
        uint64_t tx_probe = again.txAlloc(*ctx, 64, &slots[3]);
        EXPECT_NE(tx_probe, 0u);
        EXPECT_EQ(again.txCommit(*ctx), NvStatus::Ok);
        EXPECT_EQ(slots[3], tx_probe);
        again.detachThread(ctx);
    } else {
        ADD_FAILURE() << "recovered heap refused an attach";
    }

    return triggered;
}

class TxCrashSweep : public ::testing::TestWithParam<int>
{
};

/** Walk nth = 1, 2, 3, ... until the armed crash no longer fires —
 *  i.e. EVERY flush point of the shape's transaction section has been
 *  a crash point, plus the final run whose crash lands after commit. */
TEST_P(TxCrashSweep, AllOrNothingAtEveryFlushPoint)
{
    TxShape shape = TxShape(GetParam());
    constexpr unsigned kCap = 400; // far above any shape's flush count
    unsigned nth = 1;
    for (; nth <= kCap; ++nth) {
        if (!runTxCrashPoint(shape, /*at_fence=*/false, nth))
            break;
        if (::testing::Test::HasFailure())
            return; // the SCOPED_TRACE already names the point
    }
    ASSERT_LE(nth, kCap) << "sweep never ran out of flush points";
    RecordProperty("crash_points", int(nth));
}

TEST_P(TxCrashSweep, AllOrNothingAtEveryFencePoint)
{
    TxShape shape = TxShape(GetParam());
    constexpr unsigned kCap = 400;
    unsigned nth = 1;
    for (; nth <= kCap; ++nth) {
        if (!runTxCrashPoint(shape, /*at_fence=*/true, nth))
            break;
        if (::testing::Test::HasFailure())
            return;
    }
    ASSERT_LE(nth, kCap) << "sweep never ran out of fence points";
    RecordProperty("crash_points", int(nth));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TxCrashSweep, ::testing::Range(0, 6));

} // namespace
} // namespace nvalloc
