/**
 * @file
 * Fault-injection substrate tests: torn persists, dropped flushes,
 * early evictions, 8-byte word atomicity, media poison, and the
 * hardened recovery they exercise.
 *
 * The centerpiece is a flush/fence-granularity crash sweep: unlike the
 * op-granularity crash matrix, crashes land *inside* operations — in
 * the middle of a WAL append, a bitmap flush, a morph step, a log
 * compaction — under four durability policies. At every crash point
 * the recovered heap must satisfy the same safety properties:
 *
 *   1. no lost committed object — every offset whose attach word was
 *      persistently published is still allocated;
 *   2. no leak — live blocks equal published words exactly;
 *   3. the heap remains fully usable after recovery;
 *   4. the recovered heap passes a full HeapAuditor walk with zero
 *      violations — the auditor is the sweep's structural oracle;
 *   5. damage injected *after* recovery (a poisoned free line, a
 *      stray persistent-bitmap bit) is repaired by the auditor and
 *      the heap audits clean again.
 *
 * Data *content* is deliberately not asserted here: the workload
 * persists payload bytes after the publishing fence, so a mid-op crash
 * legitimately loses them. Content integrity across crashes is an
 * application-transaction concern; the op-granularity crash matrix
 * covers the content-after-complete-op case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <tuple>

#include "common/rng.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/wal.h"
#include "test_util.h"

namespace nvalloc {
namespace {

// ---------------------------------------------------------------------
// Device-level fault-injection semantics
// ---------------------------------------------------------------------

TEST(PmDeviceFault, MmapFailureThrowsSystemError)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 62; // exceeds any user address space
    EXPECT_THROW(PmDevice dev(cfg), std::system_error);
}

class FaultDeviceFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 22;
        cfg.shadow = true;
        dev_ = std::make_unique<PmDevice>(cfg);
        off_ = dev_->mapRegion(4096);
        w_ = static_cast<uint64_t *>(dev_->at(off_));
    }

    /** `w = 1; persist; w = 2; fence; crash()`: the word the fence made
     *  durable. */
    uint64_t
    storeAfterFlushSurvivor()
    {
        w_[0] = 1;
        dev_->persist(w_, 8, TimeKind::FlushData);
        w_[0] = 2; // after the flush, never flushed itself
        dev_->fence();
        dev_->crash();
        return w_[0];
    }

    std::unique_ptr<PmDevice> dev_;
    uint64_t off_ = 0;
    uint64_t *w_ = nullptr;
};

TEST_F(FaultDeviceFixture, FencedEpochsAlwaysCommit)
{
    FaultPolicy p;
    p.staged_persist_fraction = 0.0; // drop every unfenced flush
    dev_->setFaultPolicy(p);

    w_[0] = 1;
    dev_->persistFence(w_, 8, TimeKind::FlushData);
    dev_->crash();
    EXPECT_EQ(w_[0], 1u) << "fence retired => durable, policy-immune";
}

TEST_F(FaultDeviceFixture, UnfencedFlushIsSubjectToPolicy)
{
    FaultPolicy p;
    p.staged_persist_fraction = 0.0;
    dev_->setFaultPolicy(p);

    w_[0] = 1;
    dev_->persistFence(w_, 8, TimeKind::FlushData);
    w_[0] = 2;
    dev_->persist(w_, 8, TimeKind::FlushData); // flushed, never fenced
    dev_->crash();
    EXPECT_EQ(w_[0], 1u) << "issued-but-unfenced flush dropped";

    // The default policy keeps it.
    dev_->setFaultPolicy(FaultPolicy{});
    w_[0] = 3;
    dev_->persist(w_, 8, TimeKind::FlushData);
    dev_->crash();
    EXPECT_EQ(w_[0], 3u) << "fraction 1.0 lands every flushed line";
}

TEST_F(FaultDeviceFixture, FenceCommitsFlushTimeContent)
{
    dev_->setFaultPolicy(FaultPolicy{});
    EXPECT_EQ(storeAfterFlushSurvivor(), 1u)
        << "a store made after the flush is not in its epoch";
}

// Poisoning a line or arming a crash must not change what a fence
// commits: every shadow device follows the same rule from the start.
TEST_F(FaultDeviceFixture, PoisonElsewhereKeepsTheRule)
{
    EXPECT_EQ(storeAfterFlushSurvivor(), 1u);
    dev_->poisonLine(off_ + 1024);
    EXPECT_EQ(storeAfterFlushSurvivor(), 1u);
}

TEST_F(FaultDeviceFixture, ArmedCrashFarAheadKeepsTheRule)
{
    EXPECT_EQ(storeAfterFlushSurvivor(), 1u);
    dev_->armCrashAtFlush(1000000);
    EXPECT_EQ(storeAfterFlushSurvivor(), 1u);
}

TEST_F(FaultDeviceFixture, EvictionLandsNeverFlushedStores)
{
    w_[0] = 1;
    dev_->persistFence(w_, 8, TimeKind::FlushData);

    w_[0] = 2; // dirty, never flushed
    dev_->crash();
    EXPECT_EQ(w_[0], 1u) << "no eviction: unflushed store lost";

    FaultPolicy p;
    p.eviction_fraction = 1.0;
    dev_->setFaultPolicy(p);
    w_[0] = 2;
    dev_->crash();
    EXPECT_EQ(w_[0], 2u) << "evicted line reached media without flush";
}

TEST_F(FaultDeviceFixture, TornLineRespectsWordAtomicity)
{
    bool saw_old = false, saw_new = false;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        FaultPolicy p;
        p.seed = seed;
        p.word_granularity = true;
        dev_->setFaultPolicy(p);

        for (unsigned i = 0; i < 8; ++i)
            w_[i] = 0x1111111111111111ull * (i + 1);
        dev_->persistFence(w_, 64, TimeKind::FlushData);

        for (unsigned i = 0; i < 8; ++i)
            w_[i] = 0xaaaaaaaaaaaaaaaaull - i;
        dev_->persist(w_, 64, TimeKind::FlushData); // unfenced: may tear
        dev_->crash();

        for (unsigned i = 0; i < 8; ++i) {
            uint64_t old_v = 0x1111111111111111ull * (i + 1);
            uint64_t new_v = 0xaaaaaaaaaaaaaaaaull - i;
            ASSERT_TRUE(w_[i] == old_v || w_[i] == new_v)
                << "word " << i << " torn below 8-byte granularity";
            (w_[i] == old_v ? saw_old : saw_new) = true;
        }
        // Reset to a clean fenced state for the next seed.
        for (unsigned i = 0; i < 8; ++i)
            w_[i] = 0;
        dev_->persistFence(w_, 64, TimeKind::FlushData);
    }
    EXPECT_TRUE(saw_old && saw_new)
        << "tearing should produce a mix of old and new words";
}

TEST_F(FaultDeviceFixture, ArmedCrashFreezesWithoutThrowing)
{
    dev_->armCrashAtFlush(2);

    w_[0] = 1;
    dev_->persistFence(w_, 8, TimeKind::FlushData); // flush #1, fenced
    EXPECT_FALSE(dev_->crashTriggered());

    w_[1] = 2;
    dev_->persistFence(&w_[1], 8, TimeKind::FlushData); // flush #2: crash
    EXPECT_TRUE(dev_->crashTriggered());

    // The workload keeps running; post-crash-point stores are doomed.
    w_[2] = 3;
    dev_->persistFence(&w_[2], 8, TimeKind::FlushData);

    dev_->crash();
    EXPECT_EQ(w_[0], 1u) << "pre-crash fenced epoch kept";
    EXPECT_EQ(w_[1], 2u) << "crash-epoch flush lands (fraction 1.0)";
    EXPECT_EQ(w_[2], 0u) << "post-crash-point persist is a no-op";
    EXPECT_FALSE(dev_->crashTriggered()) << "crash consumed the arming";
}

TEST_F(FaultDeviceFixture, PoisonReadsSentinelUntilRewritten)
{
    dev_->poisonLine(off_);
    EXPECT_TRUE(dev_->isPoisoned(w_, 8));
    EXPECT_EQ(dev_->poisonedLineCount(), 1u);
    auto *bytes = static_cast<uint8_t *>(dev_->at(off_));
    for (unsigned i = 0; i < kCacheLine; ++i)
        ASSERT_EQ(bytes[i], kPoisonByte);

    // Poison is a media property: it survives a crash.
    dev_->crash();
    EXPECT_TRUE(dev_->isPoisoned(w_, 8));
    EXPECT_EQ(bytes[0], kPoisonByte);

    // A persisted write heals the line.
    w_[0] = 7;
    dev_->persistFence(w_, 8, TimeKind::FlushData);
    EXPECT_FALSE(dev_->isPoisoned(w_, 8));
    EXPECT_EQ(dev_->poisonedLineCount(), 0u);
    dev_->crash();
    EXPECT_EQ(w_[0], 7u);

    // clearPoison is administrative repair: flag gone, bytes stale.
    dev_->poisonLine(off_);
    dev_->clearPoison(off_);
    EXPECT_FALSE(dev_->isPoisoned(w_, 8));
}

// ---------------------------------------------------------------------
// Flush/fence-granularity crash sweep
// ---------------------------------------------------------------------

constexpr unsigned kSlots = 64;
constexpr unsigned kMaxOps = 400;

struct PolicyCase
{
    const char *name;
    double staged_fraction;
    double eviction_fraction;
    bool word_granularity;
};

constexpr PolicyCase kPolicyCases[] = {
    {"clean-epoch", 1.0, 0.0, false},
    {"dropped-flushes", 0.5, 0.3, false},
    {"torn-words", 0.7, 0.0, true},
    {"epoch-lost", 0.0, 0.0, false},
};

/** Run the seeded mixed workload, crash at the nth flush (or fence),
 *  recover, and assert the three safety properties. */
void
runCrashSweepPoint(const PolicyCase &pc, bool at_fence, unsigned nth)
{
    SCOPED_TRACE(::testing::Message()
                 << pc.name << (at_fence ? " fence=" : " flush=") << nth);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 29;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    FaultPolicy policy;
    policy.seed = uint64_t(nth) * 0x9e3779b9u + (at_fence ? 77 : 0);
    policy.staged_persist_fraction = pc.staged_fraction;
    policy.eviction_fraction = pc.eviction_fraction;
    policy.word_granularity = pc.word_granularity;
    dev.setFaultPolicy(policy);

    uint64_t table_off;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        alloc.mallocTo(*ctx, kSlots * 8, alloc.rootWord(0));
        table_off = *alloc.rootWord(0);
        std::memset(alloc.at(table_off), 0, kSlots * 8);
        dev.persistFence(alloc.at(table_off), kSlots * 8,
                         TimeKind::FlushData);

        // Arm after setup so every crash point lands in the workload.
        if (at_fence)
            dev.armCrashAtFence(nth);
        else
            dev.armCrashAtFlush(nth);

        auto *slots = static_cast<uint64_t *>(alloc.at(table_off));
        Rng rng(99);
        for (unsigned op = 0; op < kMaxOps && !dev.crashTriggered();
             ++op) {
            unsigned s = unsigned(rng.nextBounded(kSlots));
            if (slots[s] == 0) {
                size_t size = 32 + rng.nextBounded(400);
                void *p = alloc.mallocTo(*ctx, size, &slots[s]);
                std::memset(p, int(0x40 + s), 32);
                dev.persistFence(p, 32, TimeKind::FlushData);
            } else {
                alloc.freeFrom(*ctx, &slots[s]);
            }
        }
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, envConfig());
    NvAlloc &again = *again_h;
    const RecoveryReport &rep = again.lastRecovery();
    EXPECT_TRUE(rep.performed);
    EXPECT_TRUE(rep.after_failure);

    // Properties 1 + 2: published <=> allocated, no leak.
    auto *slots = static_cast<uint64_t *>(again.at(table_off));
    unsigned published = 0;
    for (unsigned s = 0; s < kSlots; ++s) {
        if (slots[s] == 0)
            continue;
        ++published;
        ASSERT_TRUE(blockIsLive(again, slots[s]))
            << "slot " << s << " (off " << slots[s]
            << ") lost; wal_rejected=" << rep.wal_rejected
            << " undos=" << rep.wal_undos
            << " completions=" << rep.wal_completions
            << " quarantined=" << rep.slabs_quarantined;
    }
    EXPECT_EQ(liveSmallBlocks(again), published + 1)
        << "leak or loss; wal_rejected=" << rep.wal_rejected
        << " undos=" << rep.wal_undos
        << " completions=" << rep.wal_completions
        << " quarantined=" << rep.slabs_quarantined;

    // Property 4: the post-recovery heap audits clean (informational
    // poison counters aside, which the policies here never produce).
    HeapAuditor auditor(again);
    AuditReport audit0 = auditor.audit();
    EXPECT_EQ(audit0.violations(), 0u) << audit0.summary();

    // Property 5: inject repairable damage — a poisoned free line and
    // a stray bit in one slab's persistent bitmap — then repair and
    // re-audit. The stray bit goes to a quiescent slab (no morph, no
    // lent blocks) so the bitmap is rebuildable from the mirror.
    // Maintenance is paused across the injection so a background scrub
    // slice cannot heal the poisoned line before the auditor gets to
    // count and repair it (the counters below are exact).
    again.maintenance().pause();
    dev.poisonLine(dev.size() - kCacheLine); // unmapped => free line
    VSlab *victim = nullptr;
    for (unsigned a = 0; a < again.numArenas() && !victim; ++a) {
        again.arena(a).forEachSlab([&](VSlab *s) {
            if (!victim && !s->morphing() && s->lentBlocks() == 0)
                victim = s;
        });
    }
    if (victim)
        victim->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;
    AuditReport fixed = auditor.repair();
    EXPECT_EQ(fixed.scrubbed_lines, 1u) << fixed.summary();
    if (victim) {
        EXPECT_EQ(fixed.bitmap_mismatch, 1u) << fixed.summary();
        EXPECT_EQ(fixed.repaired_bitmaps, 1u) << fixed.summary();
    }
    AuditReport audit1 = auditor.audit();
    EXPECT_EQ(audit1.violations(), 0u) << audit1.summary();
    EXPECT_EQ(audit1.poisoned_free_lines, 0u);
    EXPECT_EQ(audit1.poisoned_live_lines, 0u);
    again.maintenance().resume();

    // Property 3: still usable — free everything, allocate again.
    ThreadCtx *ctx = again.attachThread();
    for (unsigned s = 0; s < kSlots; ++s) {
        if (slots[s])
            again.freeFrom(*ctx, &slots[s]);
    }
    uint64_t probe = again.allocOffset(*ctx, 128, nullptr);
    EXPECT_NE(probe, 0u);
    again.freeOffset(*ctx, probe, nullptr);
    again.detachThread(ctx);
}

class FlushCrashSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(FlushCrashSweep, SafeAtEveryFlushCrashPoint)
{
    auto [pi, k] = GetParam();
    // Per-policy offset + stride 7 keeps every (policy, nth) pair a
    // distinct absolute crash point across the whole sweep.
    unsigned nth = 1 + unsigned(pi) + 7 * k;
    runCrashSweepPoint(kPolicyCases[pi], /*at_fence=*/false, nth);
}

// 4 policies x 80 flush points = 320 distinct crash points.
INSTANTIATE_TEST_SUITE_P(Policies, FlushCrashSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0u, 80u)));

class FenceCrashSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FenceCrashSweep, SafeAtEveryFenceCrashPoint)
{
    unsigned nth = 2 + 17 * GetParam();
    runCrashSweepPoint(kPolicyCases[2], /*at_fence=*/true, nth);
}

// 25 more crash points, at fence granularity (epoch never commits).
INSTANTIATE_TEST_SUITE_P(TornWords, FenceCrashSweep,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------
// WAL checksum rejection
// ---------------------------------------------------------------------

TEST(WalChecksum, TornEntryIsRejectedAndUndoneNotReplayed)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);

    uint64_t c_off;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        alloc.mallocTo(*ctx, 64, alloc.rootWord(2));
        c_off = *alloc.rootWord(2);

        // Newest entry journals the (published, committed) alloc of C.
        // Rewrite its attach word to an empty root — the shape a torn
        // append would leave — WITHOUT fixing the crc. If replay
        // trusted it, it would "undo" the never-published alloc and
        // free live block C.
        auto *newest = const_cast<WalEntry *>(Wal::newestEntry(
            &dev, alloc.walRingOffset(ctx->wal_slot)));
        ASSERT_NE(newest, nullptr);
        ASSERT_EQ(newest->block_op >> 2, c_off);
        newest->where_off = dev.offsetOf(alloc.rootWord(3));
        alloc.dirtyRestart();
    }
    {
        auto again_h = NvAlloc::openOrDie(dev);
        NvAlloc &again = *again_h;
        const RecoveryReport &rep = again.lastRecovery();
        EXPECT_TRUE(rep.after_failure);
        EXPECT_GE(rep.wal_rejected, 1u) << "checksum must fire";
        EXPECT_EQ(rep.wal_undos, 0u);
        EXPECT_TRUE(blockIsLive(again, c_off))
            << "torn entry must be treated as uncommitted, not replayed";

        // Control: the same entry with a VALID crc is trusted, and the
        // undo it describes really does free C — demonstrating that
        // only the checksum stood between the torn entry and replay.
        WalEntry fake{};
        fake.block_op = (c_off << 2) | uint64_t(kWalAlloc);
        fake.seq = 1;
        fake.where_off = dev.offsetOf(again.rootWord(3));
        fake.size = 64;
        fake.crc = walEntryCrc(fake);
        *static_cast<WalEntry *>(dev.at(again.walRingOffset(0))) = fake;
        again.dirtyRestart();
    }
    auto third_h = NvAlloc::openOrDie(dev);
    NvAlloc &third = *third_h;
    EXPECT_EQ(third.lastRecovery().wal_rejected, 0u);
    EXPECT_GE(third.lastRecovery().wal_undos, 1u);
    EXPECT_FALSE(blockIsLive(third, c_off));
}

// ---------------------------------------------------------------------
// Media poison containment
// ---------------------------------------------------------------------

TEST(PoisonContainment, PoisonedSlabHeaderIsQuarantinedPersistently)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    uint64_t a_off, b_off, slab_off;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        alloc.mallocTo(*ctx, 64, alloc.rootWord(0));
        a_off = *alloc.rootWord(0);
        alloc.mallocTo(*ctx, 2048, alloc.rootWord(1));
        b_off = *alloc.rootWord(1);
        auto *slab = static_cast<VSlab *>(alloc.slabRadix().get(a_off));
        ASSERT_NE(slab, nullptr);
        slab_off = slab->slabOffset();
        ASSERT_NE(slab_off,
                  static_cast<VSlab *>(alloc.slabRadix().get(b_off))
                      ->slabOffset())
            << "test needs the two blocks in different slabs";

        dev.poisonLine(slab_off); // header's first line
        alloc.simulateCrash();
    }
    uint64_t probe;
    {
        auto again_h = NvAlloc::openOrDie(dev);
        NvAlloc &again = *again_h;
        const RecoveryReport &rep = again.lastRecovery();
        EXPECT_GE(rep.lines_poisoned, 1u);
        EXPECT_EQ(rep.slabs_quarantined, 1u);
        EXPECT_TRUE(again.isQuarantined(slab_off));
        auto q = again.quarantinedSlabs();
        EXPECT_NE(std::find(q.begin(), q.end(), slab_off), q.end());

        // Contained loss: the poisoned slab's block is gone, the rest
        // of the heap is intact and fully usable.
        EXPECT_FALSE(blockIsLive(again, a_off));
        EXPECT_TRUE(blockIsLive(again, b_off));
        EXPECT_EQ(liveSmallBlocks(again), 1u);

        ThreadCtx *ctx = again.attachThread();
        probe = again.allocOffset(*ctx, 64, nullptr);
        EXPECT_NE(probe, 0u);
        EXPECT_FALSE(again.isQuarantined(
            static_cast<VSlab *>(again.slabRadix().get(probe))
                ->slabOffset()));
        again.freeOffset(*ctx, probe, nullptr);
        again.detachThread(ctx);
        again.dirtyRestart();
    }
    // The quarantine list is persistent: the next recovery skips the
    // slab silently instead of re-quarantining (or worse, adopting) it.
    auto third_h = NvAlloc::openOrDie(dev);
    NvAlloc &third = *third_h;
    EXPECT_TRUE(third.isQuarantined(slab_off));
    EXPECT_EQ(third.lastRecovery().slabs_quarantined, 0u);
    EXPECT_FALSE(blockIsLive(third, a_off));
}

// ---------------------------------------------------------------------
// Double recovery: crash during recovery, recover again
// ---------------------------------------------------------------------

class DoubleRecovery : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DoubleRecovery, CrashDuringRecoveryIsIdempotent)
{
    unsigned nth = GetParam();
    SCOPED_TRACE(::testing::Message() << "recovery crash flush=" << nth);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 29;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    FaultPolicy policy;
    policy.seed = nth * 31 + 7;
    policy.staged_persist_fraction = 0.6;
    policy.word_granularity = true;
    dev.setFaultPolicy(policy);

    // Phase 1: a workload crash leaves real recovery work behind.
    uint64_t table_off;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        alloc.mallocTo(*ctx, kSlots * 8, alloc.rootWord(0));
        table_off = *alloc.rootWord(0);
        std::memset(alloc.at(table_off), 0, kSlots * 8);
        dev.persistFence(alloc.at(table_off), kSlots * 8,
                         TimeKind::FlushData);
        dev.armCrashAtFlush(173);
        auto *slots = static_cast<uint64_t *>(alloc.at(table_off));
        Rng rng(7);
        for (unsigned op = 0; op < 200 && !dev.crashTriggered(); ++op) {
            unsigned s = unsigned(rng.nextBounded(kSlots));
            if (slots[s] == 0)
                alloc.mallocTo(*ctx, 32 + rng.nextBounded(400),
                               &slots[s]);
            else
                alloc.freeFrom(*ctx, &slots[s]);
        }
        alloc.simulateCrash();
    }

    // Phase 2: the first recovery itself crashes at the nth flush.
    dev.armCrashAtFlush(nth);
    {
        auto once_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &once = *once_h;
        once.simulateCrash();
    }

    // Phase 3: the second recovery must complete and the safety
    // properties must hold exactly as after a single recovery.
    auto again_h = NvAlloc::openOrDie(dev, envConfig());
    NvAlloc &again = *again_h;
    const RecoveryReport &rep = again.lastRecovery();
    EXPECT_TRUE(rep.performed);
    EXPECT_TRUE(rep.after_failure);

    auto *slots = static_cast<uint64_t *>(again.at(table_off));
    unsigned published = 0;
    for (unsigned s = 0; s < kSlots; ++s) {
        if (slots[s] == 0)
            continue;
        ++published;
        ASSERT_TRUE(blockIsLive(again, slots[s])) << "slot " << s;
    }
    EXPECT_EQ(liveSmallBlocks(again), published + 1);

    ThreadCtx *ctx = again.attachThread();
    for (unsigned s = 0; s < kSlots; ++s) {
        if (slots[s])
            again.freeFrom(*ctx, &slots[s]);
    }
    uint64_t probe = again.allocOffset(*ctx, 128, nullptr);
    EXPECT_NE(probe, 0u);
    again.freeOffset(*ctx, probe, nullptr);
    again.detachThread(ctx);
}

INSTANTIATE_TEST_SUITE_P(RecoveryCrashPoints, DoubleRecovery,
                         ::testing::Values(3u, 11u, 29u, 67u, 139u,
                                           311u, 701u, 1511u, 3001u,
                                           6007u));

} // namespace
} // namespace nvalloc
