/**
 * @file
 * Chaos soak: the hardening subsystem's end-to-end containment
 * contract under an adversarial mix of crashes, media poison and
 * deliberate application corruption.
 *
 * The engine lives in tools/chaos_harness.h (shared with the
 * nvalloc_chaos CLI); each round churns a reopened heap, injects one
 * seeded trouble event, and asserts detection (the matching
 * stats.hardening.* counter moved, with the documented status) plus
 * containment (audit clean, repairable damage repaired, recovery
 * converged after crashes). With no maintenance thread, every run is
 * deterministic for its seed.
 */

#include <gtest/gtest.h>

#include "chaos_harness.h"

using namespace nvalloc;

namespace {

/** Every corruption class must have been injected at least once and
 *  detected every time it was injected (skips excluded). */
void
expectFullCoverage(const ChaosHarness &h)
{
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        EXPECT_GT(h.injected(ev), h.skipped(ev))
            << chaosEventName(ev) << " never ran";
        EXPECT_EQ(h.detected(ev), h.injected(ev) - h.skipped(ev))
            << chaosEventName(ev) << " injected but not detected";
    }
}

} // namespace

TEST(Chaos, SoakContainsAllCorruption)
{
    ChaosOptions o;
    o.seed = 20260807;
    o.rounds = 200;
    ChaosHarness h(o);
    EXPECT_TRUE(h.run()) << h.error();
    EXPECT_EQ(h.roundsRun(), o.rounds);
    expectFullCoverage(h);
}

TEST(Chaos, SoakGcVariantQuarantinePolicy)
{
    ChaosOptions o;
    o.seed = 99;
    o.rounds = 60;
    o.gc = true;
    o.policy = HardeningPolicy::Quarantine;
    ChaosHarness h(o);
    EXPECT_TRUE(h.run()) << h.error();
    EXPECT_EQ(h.roundsRun(), o.rounds);
    // A 60-round run still cycles each class several times; require at
    // least one real (non-skipped) detection per class. Torn
    // transactions and KV stomps are the exception: the tx layer (and
    // the KV service built on it) is LOG-only, so on the GC variant
    // those classes degrade to documented skips.
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        if (ev == ChaosEvent::TornTx || ev == ChaosEvent::KvStomp) {
            EXPECT_EQ(h.detected(ev), 0u) << chaosEventName(ev);
            EXPECT_EQ(h.skipped(ev), h.injected(ev))
                << chaosEventName(ev);
            continue;
        }
        EXPECT_GT(h.detected(ev), 0u) << chaosEventName(ev);
    }
}

TEST(Chaos, DeterministicForSeed)
{
    ChaosOptions o;
    o.seed = 4242;
    o.rounds = 30;
    ChaosHarness a(o), b(o);
    ASSERT_TRUE(a.run()) << a.error();
    ASSERT_TRUE(b.run()) << b.error();
    for (unsigned e = 0; e < ChaosHarness::kEventCount; ++e) {
        ChaosEvent ev = ChaosEvent(e);
        EXPECT_EQ(a.injected(ev), b.injected(ev)) << chaosEventName(ev);
        EXPECT_EQ(a.detected(ev), b.detected(ev)) << chaosEventName(ev);
        EXPECT_EQ(a.skipped(ev), b.skipped(ev)) << chaosEventName(ev);
    }
}

/** Long soak — excluded from the default ctest run; registered under
 *  the `soak` ctest configuration/label (see tests/CMakeLists.txt) and
 *  runnable directly with --gtest_also_run_disabled_tests. */
TEST(Chaos, DISABLED_LongSoak)
{
    ChaosOptions o;
    o.seed = 1;
    o.rounds = 2000;
    ChaosHarness h(o);
    EXPECT_TRUE(h.run()) << h.error();
    expectFullCoverage(h);
}
