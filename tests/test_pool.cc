/**
 * @file
 * HeapPool tests (DESIGN.md §12): per-tenant isolation, the
 * config-identity open contract, quota enforcement, health-state
 * containment (victim refuses, siblings serve), sibling opens during
 * quarantine, the restore() repair path, the pool chaos soak, and a
 * crash-point sweep landing inside patrol-scrub slices.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "nvalloc/auditor.h"
#include "nvalloc/layout.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/pool.h"
#include "nvalloc/slab.h"
#include "pool_chaos_harness.h"
#include "test_util.h"

namespace nvalloc {
namespace {

/** Deterministic member config: no maintenance thread (tests drive
 *  the patrol directly). The pool forces fault_containment. */
NvAllocConfig
memberConfig()
{
    return NvAllocConfig{};
}

/** Drive the victim's patrol until it reaches `goal` (bounded). */
bool
patrolUntil(NvAlloc &heap, HeapHealth goal, unsigned budget = 4096)
{
    while (unsigned(heap.health()) < unsigned(goal) && budget--)
        heap.patrolSlice();
    return unsigned(heap.health()) >= unsigned(goal);
}

TEST(PoolOpen, SameConfigSharesMemberDifferentConfigRefused)
{
    PmDevice d0, d1;
    HeapPool pool;

    HeapPool::MemberResult a = pool.open("alpha", d0, memberConfig());
    ASSERT_TRUE(a) << nvStatusName(a.status);
    ASSERT_NE(a.heap, nullptr);
    EXPECT_FALSE(a.existing);
    EXPECT_TRUE(a.heap->config().fault_containment)
        << "pool must force containment on";

    // Identical config: the same member comes back.
    HeapPool::MemberResult again = pool.open("alpha", d0, memberConfig());
    ASSERT_TRUE(again);
    EXPECT_TRUE(again.existing);
    EXPECT_EQ(again.heap, a.heap);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.stats().reopen_hits.load(), 1u);

    // Different config: refused, recorded on the existing member.
    NvAllocConfig other = memberConfig();
    other.consistency = Consistency::Gc;
    HeapPool::MemberResult bad = pool.open("alpha", d1, other);
    EXPECT_EQ(bad.status, NvStatus::InvalidArgument);
    EXPECT_EQ(bad.heap, nullptr);
    EXPECT_EQ(a.heap->lastStatus(), NvStatus::InvalidArgument);
    EXPECT_EQ(pool.stats().option_mismatches.load(), 1u);
    EXPECT_EQ(pool.stats().reopen_hits.load(), 1u);

    // The refusal did not disturb the member.
    ThreadCtx *ctx = a.heap->attachThread();
    uint64_t off = a.heap->allocOffset(*ctx, 128, nullptr);
    EXPECT_NE(off, 0u);
    a.heap->freeOffset(*ctx, off, nullptr);
    a.heap->detachThread(ctx);
    EXPECT_EQ(a.heap->health(), HeapHealth::Serving);

    EXPECT_EQ(pool.close("alpha"), NvStatus::Ok);
    EXPECT_EQ(pool.close("alpha"), NvStatus::InvalidArgument);
    EXPECT_EQ(pool.size(), 0u);
}

TEST(PoolQuota, CapacityQuotaConfinesOneTenant)
{
    PmDevice d0, d1;
    HeapPool pool;

    NvAllocConfig capped = memberConfig();
    capped.capacity_quota_bytes = uint64_t{1} << 20; // 1 MB of extents
    NvAlloc *small = pool.open("capped", d0, capped).heap;
    NvAlloc *wide = pool.open("wide", d1, memberConfig()).heap;
    ASSERT_NE(small, nullptr);
    ASSERT_NE(wide, nullptr);

    // A small allocation first, so a slab exists before the quota
    // (which bounds *all* activated extents, slabs included) fills up.
    ThreadCtx *sc = small->attachThread();
    uint64_t probe = small->allocOffset(*sc, 128, nullptr);
    ASSERT_NE(probe, 0u);

    // Fill the capped tenant's extent quota.
    std::vector<uint64_t> held;
    for (;;) {
        uint64_t off = small->allocOffset(*sc, 256 * 1024, nullptr);
        if (off == 0)
            break;
        held.push_back(off);
        ASSERT_LE(held.size(), 64u) << "quota never enforced";
    }
    EXPECT_EQ(small->lastStatus(), NvStatus::QuotaExceeded);
    EXPECT_GE(held.size(), 2u); // the quota was usable up to the cap

    // Quota exhaustion is resource pressure, not corruption: the
    // member stays Serving, and small allocations backed by the
    // already-activated slab still work.
    EXPECT_EQ(small->health(), HeapHealth::Serving);
    uint64_t probe2 = small->allocOffset(*sc, 128, nullptr);
    EXPECT_NE(probe2, 0u);
    small->freeOffset(*sc, probe2, nullptr);
    small->freeOffset(*sc, probe, nullptr);

    // ...and the sibling's extent path is unaffected.
    ThreadCtx *wc = wide->attachThread();
    uint64_t big = wide->allocOffset(*wc, 256 * 1024, nullptr);
    EXPECT_NE(big, 0u);
    wide->freeOffset(*wc, big, nullptr);
    wide->detachThread(wc);

    // Freeing extents returns quota headroom.
    for (uint64_t off : held)
        small->freeOffset(*sc, off, nullptr);
    EXPECT_NE(small->allocOffset(*sc, 256 * 1024, nullptr), 0u);
    small->detachThread(sc);
}

TEST(PoolContainment, VictimRefusesSiblingServesThenRestores)
{
    PmDevice d0, d1;
    HeapPool pool;
    NvAlloc *victim = pool.open("victim", d0, memberConfig()).heap;
    NvAlloc *sibling = pool.open("sibling", d1, memberConfig()).heap;
    ASSERT_NE(victim, nullptr);
    ASSERT_NE(sibling, nullptr);

    ThreadCtx *vc = victim->attachThread();
    ThreadCtx *sc = sibling->attachThread();

    uint64_t off = victim->allocOffset(*vc, 256, nullptr);
    ASSERT_NE(off, 0u);
    EXPECT_EQ(victim->freeOffset(*vc, off, nullptr), NvStatus::Ok);

    uint64_t sibling_fails_before = ~0ull;
    ASSERT_EQ(sibling->ctlRead("stats.degraded.failed_allocs",
                               &sibling_fails_before),
              NvStatus::Ok);

    // A double free is detected by the hardened free pipeline and,
    // under containment, escalates the victim to Degraded.
    EXPECT_NE(victim->freeOffset(*vc, off, nullptr), NvStatus::Ok);
    EXPECT_EQ(victim->health(), HeapHealth::Degraded);

    // The victim refuses new mutations with HeapUnhealthy...
    EXPECT_EQ(victim->allocOffset(*vc, 256, nullptr), 0u);
    EXPECT_EQ(victim->lastStatus(), NvStatus::HeapUnhealthy);

    // ...while the sibling serves with zero failed operations.
    for (int i = 0; i < 32; ++i) {
        uint64_t s = sibling->allocOffset(*sc, 64 + 32 * i, nullptr);
        ASSERT_NE(s, 0u);
        sibling->freeOffset(*sc, s, nullptr);
    }
    uint64_t sibling_fails_after = ~0ull;
    ASSERT_EQ(sibling->ctlRead("stats.degraded.failed_allocs",
                               &sibling_fails_after),
              NvStatus::Ok);
    EXPECT_EQ(sibling_fails_after, sibling_fails_before);
    EXPECT_EQ(sibling->health(), HeapHealth::Serving);

    // The pool snapshot reflects both states.
    bool saw_victim = false;
    for (const HeapPool::MemberHealth &m : pool.snapshot()) {
        if (m.name == "victim") {
            saw_victim = true;
            EXPECT_EQ(m.health, HeapHealth::Degraded);
            EXPECT_GE(m.escalations, 1u);
            EXPECT_FALSE(m.last_reason.empty());
        } else {
            EXPECT_EQ(m.health, HeapHealth::Serving);
        }
    }
    EXPECT_TRUE(saw_victim);
    EXPECT_GE(pool.stats().escalations.load(), 1u);

    // restore() repairs (nothing persistent was damaged — the bad
    // free was rejected) and returns the victim to Serving. The
    // tenant quiesces first: the auditor needs no lent blocks.
    victim->detachThread(vc);
    EXPECT_EQ(pool.restore("victim"), NvStatus::Ok);
    EXPECT_EQ(victim->health(), HeapHealth::Serving);
    EXPECT_GE(pool.stats().restores.load(), 1u);

    vc = victim->attachThread();
    uint64_t back = victim->allocOffset(*vc, 256, nullptr);
    EXPECT_NE(back, 0u);
    victim->freeOffset(*vc, back, nullptr);
    victim->detachThread(vc);
    sibling->detachThread(sc);
}

TEST(PoolQuarantine, PatrolEscalatesSiblingOpensRestoreRepairs)
{
    PmDevice d0, d1, d2;
    HeapPool pool;
    NvAlloc *victim = pool.open("victim", d0, memberConfig()).heap;
    NvAlloc *sibling = pool.open("sibling", d1, memberConfig()).heap;
    ASSERT_NE(victim, nullptr);
    ASSERT_NE(sibling, nullptr);

    ThreadCtx *vc = victim->attachThread();
    std::vector<uint64_t> offs;
    for (int i = 0; i < 48; ++i)
        offs.push_back(victim->allocOffset(*vc, 96, nullptr));

    // A stray persistent bitmap bit: popcount no longer matches the
    // live count, which the patrol can detect but not repair in
    // place — the victim must cross into Quarantined.
    bool flipped = false;
    for (unsigned a = 0; a < victim->numArenas() && !flipped; ++a) {
        victim->arena(a).forEachSlab([&](VSlab *sl) {
            if (flipped || sl->morphing())
                return;
            sl->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;
            flipped = true;
        });
    }
    ASSERT_TRUE(flipped);

    ASSERT_TRUE(patrolUntil(*victim, HeapHealth::Quarantined))
        << "patrol did not quarantine within budget, health="
        << heapHealthName(victim->health());
    EXPECT_GE(pool.stats().quarantines.load(), 1u);

    // Sibling operations — including a brand-new member open — are
    // legal while the victim sits quarantined.
    NvAlloc *late = pool.open("late", d2, memberConfig()).heap;
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(late->health(), HeapHealth::Serving);
    ThreadCtx *lc = late->attachThread();
    uint64_t loff = late->allocOffset(*lc, 512, nullptr);
    EXPECT_NE(loff, 0u);
    late->freeOffset(*lc, loff, nullptr);
    late->detachThread(lc);
    EXPECT_EQ(sibling->health(), HeapHealth::Serving);
    EXPECT_EQ(pool.names().size(), 3u);

    // restore() rebuilds the persistent bitmap from the live state;
    // the tenant quiesces (detaches) first so no blocks are lent.
    victim->detachThread(vc);
    EXPECT_EQ(pool.restore("victim"), NvStatus::Ok);
    EXPECT_EQ(victim->health(), HeapHealth::Serving);

    vc = victim->attachThread();
    for (uint64_t off : offs)
        if (off)
            victim->freeOffset(*vc, off, nullptr);
    victim->detachThread(vc);
    HeapAuditor auditor(*victim);
    EXPECT_TRUE(auditor.audit().clean());
}

// ---------------------------------------------------------------------
// Pool chaos: the 4-tenant containment soak (tools/pool_chaos_harness.h)
// in a deterministic short configuration. The long soak is the
// DISABLED_ test below, registered under the `soak` ctest config.
// ---------------------------------------------------------------------

TEST(PoolChaos, ShortSoakContainsEveryClass)
{
    ChaosOptions o;
    o.seed = 20260809;
    o.rounds = 22; // each of the 12 classes once, ten of them twice
    PoolChaosHarness h(o);
    EXPECT_TRUE(h.runPool()) << h.error();
    EXPECT_EQ(h.roundsRun(), o.rounds);
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        EXPECT_GT(h.injected(ev), 0u) << chaosEventName(ev);
        EXPECT_EQ(h.detected(ev), h.injected(ev) - h.skipped(ev))
            << chaosEventName(ev) << " injected but not detected";
    }
}

TEST(PoolChaos, GcVariantSkipsOnlyTheTxClasses)
{
    ChaosOptions o;
    o.seed = 99;
    o.rounds = 24; // two full cycles of the 12 classes
    o.gc = true;
    PoolChaosHarness h(o);
    EXPECT_TRUE(h.runPool()) << h.error();
    EXPECT_EQ(h.roundsRun(), o.rounds);
    // The tx layer, and the KV service built on it, is LOG-only: on the
    // GC variant those classes are documented skips and every other
    // class, crashes included, is still detected.
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        if (ev == ChaosEvent::TornTx || ev == ChaosEvent::KvStomp) {
            EXPECT_EQ(h.skipped(ev), h.injected(ev)) << chaosEventName(ev);
            EXPECT_EQ(h.detected(ev), 0u) << chaosEventName(ev);
            continue;
        }
        EXPECT_GE(h.detected(ev), 1u) << chaosEventName(ev);
        EXPECT_EQ(h.detected(ev), h.injected(ev) - h.skipped(ev))
            << chaosEventName(ev);
    }
}

TEST(PoolChaos, DeterministicForSeed)
{
    ChaosOptions o;
    o.seed = 777;
    o.rounds = 11;
    PoolChaosHarness a(o), b(o);
    ASSERT_TRUE(a.runPool()) << a.error();
    ASSERT_TRUE(b.runPool()) << b.error();
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        EXPECT_EQ(a.injected(ev), b.injected(ev)) << chaosEventName(ev);
        EXPECT_EQ(a.detected(ev), b.detected(ev)) << chaosEventName(ev);
        EXPECT_EQ(a.skipped(ev), b.skipped(ev)) << chaosEventName(ev);
    }
}

/** Long pool soak — excluded from the default ctest run; registered
 *  under the `soak` configuration/label (tests/CMakeLists.txt). */
TEST(PoolChaos, DISABLED_LongSoak)
{
    ChaosOptions o;
    o.seed = 20260809;
    o.rounds = 200;
    PoolChaosHarness h(o);
    EXPECT_TRUE(h.runPool()) << h.error();
    EXPECT_EQ(h.roundsRun(), o.rounds);
}

// ---------------------------------------------------------------------
// Crash points inside a patrol-scrub slice. The patrol persists header
// repairs; crashing at the nth flush after the patrol starts lands the
// crash inside (or between) repair persists. Safety contract: recovery
// completes, the heap audits clean (an unrepaired slab is quarantined
// and leaked — contained, not fatal), and the heap keeps serving.
// Honours NVALLOC_MAINTENANCE=manual|thread like the other sweeps, so
// the CI thread leg also proves patrol slices racing the background
// maintenance thread.
// ---------------------------------------------------------------------

class PatrolCrashMatrix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PatrolCrashMatrix, RecoversAuditCleanFromPatrolSliceCrash)
{
    const unsigned nth = GetParam();
    SCOPED_TRACE(::testing::Message() << "patrol flush=" << nth);

    NvAllocConfig cfg = envConfig(memberConfig());

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    {
        auto alloc_h = NvAlloc::openOrDie(dev, cfg);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();

        // Seeded mixed workload so the patrol has slabs to walk.
        constexpr unsigned kSlots = 64;
        uint64_t slots[kSlots] = {};
        Rng rng(nth * 7919u + 3);
        for (unsigned op = 0; op < 300; ++op) {
            unsigned s = unsigned(rng.nextBounded(kSlots));
            if (slots[s] == 0)
                slots[s] =
                    alloc.allocOffset(*ctx, 32 + rng.nextBounded(480),
                                      nullptr);
            else
                alloc.freeOffset(*ctx, slots[s], nullptr),
                    slots[s] = 0;
        }

        // Smash a handful of slab headers: each one is a patrol
        // finding whose repair persists — a flush point inside the
        // patrol slice.
        unsigned smashed = 0;
        for (unsigned a = 0; a < alloc.numArenas() && smashed < 4; ++a) {
            alloc.arena(a).forEachSlab([&](VSlab *sl) {
                if (smashed < 4 && !sl->morphing()) {
                    sl->header()->size_class ^= 0x55;
                    ++smashed;
                }
            });
        }
        ASSERT_GT(smashed, 0u);

        dev.armCrashAtFlush(nth);
        for (unsigned slice = 0;
             slice < 512 && !dev.crashTriggered(); ++slice)
            alloc.patrolSlice();
        alloc.simulateCrash();
    }

    // Recovery must complete; damage the patrol had not yet durably
    // repaired is contained (slab quarantined), never fatal.
    auto again_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().performed);

    HeapAuditor auditor(again);
    AuditReport rep = auditor.audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();

    // Still serving: fresh traffic and a full patrol pass stay quiet.
    ThreadCtx *ctx = again.attachThread();
    uint64_t probe = again.allocOffset(*ctx, 192, nullptr);
    EXPECT_NE(probe, 0u);
    again.freeOffset(*ctx, probe, nullptr);
    again.detachThread(ctx);

    uint64_t passes_before = 0;
    ASSERT_EQ(again.ctlRead("stats.scrub.passes", &passes_before),
              NvStatus::Ok);
    for (unsigned slice = 0; slice < 4096; ++slice) {
        uint64_t passes = 0;
        again.patrolSlice();
        again.ctlRead("stats.scrub.passes", &passes);
        if (passes > passes_before)
            break;
    }
    // Under NVALLOC_MAINTENANCE=thread a background slice publishes
    // Scrubbing while it walks; pausing waits it out, so the read
    // below sees the settled state.
    ASSERT_EQ(again.maintenanceControl("pause"), NvStatus::Ok);
    EXPECT_EQ(again.health(), HeapHealth::Serving);
}

INSTANTIATE_TEST_SUITE_P(PatrolSliceCrashPoints, PatrolCrashMatrix,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

// ---------------------------------------------------------------------
// The patrol runs audit()'s own per-item checks, so they must agree:
// damage to each of the four patrolled structures of a live heap is
// reported by audit() under its class, and one full patrol pass finds
// it and lands the health it warrants — Degraded for a slab header it
// repairs in place (audit() is clean of it afterwards), Quarantined for
// everything it cannot repair (audit() still reports it).
// ---------------------------------------------------------------------

enum class Damage
{
    SuperblockConfig,
    RegionEntry,
    SlabHeader,
    BitmapBit,
    LogChunkId,
};

class PatrolAgreesWithAudit : public ::testing::TestWithParam<Damage>
{
};

TEST_P(PatrolAgreesWithAudit, OnePassFindsWhatAuditReports)
{
    PmDevice dev;
    auto heap_h = NvAlloc::openOrDie(dev, memberConfig());
    NvAlloc &heap = *heap_h;
    ThreadCtx *ctx = heap.attachThread();
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_NE(heap.allocOffset(*ctx, 64 + 48 * i, nullptr), 0u);
    HeapAuditor auditor(heap);
    ASSERT_TRUE(auditor.audit().clean());

    VSlab *slab = nullptr;
    for (unsigned a = 0; a < heap.numArenas() && !slab; ++a)
        heap.arena(a).forEachSlab([&](VSlab *sl) {
            if (!slab && !sl->morphing())
                slab = sl;
        });
    ASSERT_NE(slab, nullptr);

    auto *sb = static_cast<NvSuperblock *>(dev.root());
    uint64_t AuditReport::*counter = nullptr;
    switch (GetParam()) {
    case Damage::SuperblockConfig:
        sb->stripes ^= 0x40; // inside the sb_crc span
        counter = &AuditReport::superblock_bad;
        break;
    case Damage::RegionEntry: {
        // Publish a region-table entry that ends past the device.
        uint64_t *table = regionTable(dev);
        unsigned i = 0;
        while (table[i] != 0)
            ++i;
        table[i] = packRegionEntry(dev.size(), kRegionSize);
        counter = &AuditReport::region_table_bad;
        break;
    }
    case Damage::SlabHeader:
        slab->header()->size_class ^= 0x55;
        counter = &AuditReport::slab_header_bad;
        break;
    case Damage::BitmapBit:
        slab->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;
        counter = &AuditReport::bitmap_mismatch;
        break;
    case Damage::LogChunkId: {
        const auto *lh = static_cast<const LogHeader *>(dev.at(sb->log_off));
        ASSERT_NE(lh->head[lh->alt], 0u);
        static_cast<LogChunk *>(dev.at(lh->head[lh->alt]))->id ^= 1u << 20;
        counter = &AuditReport::log_chain_bad;
        break;
    }
    }
    AuditReport before = auditor.audit();
    EXPECT_GE(before.*counter, 1u) << before.summary();

    uint64_t passes = 0;
    for (unsigned slice = 0; slice < 4096 && passes == 0; ++slice) {
        heap.patrolSlice();
        heap.ctlRead("stats.scrub.passes", &passes);
    }
    ASSERT_EQ(passes, 1u);
    const bool repairable = GetParam() == Damage::SlabHeader;
    EXPECT_EQ(heap.health(), repairable ? HeapHealth::Degraded
                                        : HeapHealth::Quarantined);
    uint64_t findings = 0;
    heap.ctlRead("stats.scrub.findings", &findings);
    EXPECT_GE(findings, 1u);

    AuditReport after = auditor.audit();
    if (repairable)
        EXPECT_EQ(after.*counter, 0u) << after.summary();
    else
        EXPECT_GE(after.*counter, 1u) << after.summary();
    heap.detachThread(ctx);
}

std::string
damageName(const ::testing::TestParamInfo<Damage> &info)
{
    static const char *const kNames[] = {"SuperblockConfig", "RegionEntry",
                                         "SlabHeader", "BitmapBit",
                                         "LogChunkId"};
    return kNames[unsigned(info.param)];
}

INSTANTIATE_TEST_SUITE_P(LiveHeapDamage, PatrolAgreesWithAudit,
                         ::testing::Values(Damage::SuperblockConfig,
                                           Damage::RegionEntry,
                                           Damage::SlabHeader,
                                           Damage::BitmapBit,
                                           Damage::LogChunkId),
                         damageName);

} // namespace
} // namespace nvalloc
