/**
 * @file
 * Tests of the background maintenance subsystem (maintenance.h,
 * DESIGN.md §8) and the redesigned construction surface around it:
 *
 *  - Off mode is deterministic: two identical runs stepping the
 *    service at the same points produce identical counters;
 *  - epoch pins defer slow GC (the only stage that relocates live log
 *    entries) and the deferral is accounted;
 *  - Thread mode wakes on log pressure from the mutator's large-object
 *    paths and absorbs GC virtual time off the allocating threads;
 *  - shutdown ordering survives concurrent churn, pause/resume storms,
 *    and crash/dirty-restart hooks (run under tsan in CI);
 *  - NvAlloc::open() validates configs up front and reports the
 *    outcome as a status, with the deprecated constructor agreeing;
 *  - the PmAllocatorRegistry constructs every builtin by name and
 *    applies MakeOptions centrally.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/allocator_iface.h"
#include "baselines/nvalloc_adapter.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"

namespace nvalloc {
namespace {

NvAllocConfig
maintConfig(MaintenanceMode mode)
{
    NvAllocConfig cfg;
    cfg.consistency = Consistency::Log;
    cfg.maintenance_mode = mode;
    return cfg;
}

/** Deterministic keep/churn mix over the large path: every iteration
 *  appends one live entry and, every other iteration, a tombstone. */
struct LargeChurn
{
    NvAlloc &alloc;
    ThreadCtx &ctx;
    std::vector<uint64_t> kept;
    uint64_t lcg = 0x9e3779b97f4a7c15ull;

    explicit LargeChurn(NvAlloc &a, ThreadCtx &c) : alloc(a), ctx(c) {}

    void
    step(unsigned i)
    {
        uint64_t off = alloc.allocOffset(ctx, 32 * 1024, nullptr);
        ASSERT_NE(off, 0u);
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        if (i % 2 == 0) {
            kept.push_back(off);
        } else {
            ASSERT_EQ(alloc.freeOffset(ctx, off, nullptr), NvStatus::Ok);
        }
    }

    void
    drain()
    {
        for (uint64_t off : kept)
            EXPECT_EQ(alloc.freeOffset(ctx, off, nullptr), NvStatus::Ok);
        kept.clear();
    }
};

// ---------------------------------------------------------------------
// Off mode, stepped by hand: determinism.
// ---------------------------------------------------------------------

struct CounterSnapshot
{
    uint64_t slices, fast, slow, decay, vns, gc_vns;

    bool
    operator==(const CounterSnapshot &o) const
    {
        return slices == o.slices && fast == o.fast && slow == o.slow &&
               decay == o.decay && vns == o.vns && gc_vns == o.gc_vns;
    }
};

CounterSnapshot
snapshot(NvAlloc &alloc)
{
    auto m = [&](const char *leaf) {
        return readCtl(alloc, (std::string("stats.maintenance.") + leaf)
                                  .c_str());
    };
    return {m("slices"),      m("log_fast_gc"), m("log_slow_gc"),
            m("decay_ticks"), m("virtual_ns"),  m("gc_virtual_ns")};
}

CounterSnapshot
steppedRun()
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = maintConfig(MaintenanceMode::Off);
    cfg.log_file_bytes = 32 * 1024;
    cfg.log_gc_threshold = 0.9; // keep the inline append trigger out

    OpenResult r = NvAlloc::open(dev, cfg);
    EXPECT_EQ(r.status, NvStatus::Ok);
    NvAlloc &alloc = *r.heap;
    ThreadCtx *ctx = alloc.attachThread();
    EXPECT_NE(ctx, nullptr);

    LargeChurn churn(alloc, *ctx);
    for (unsigned i = 0; i < 400; ++i) {
        churn.step(i);
        if (i % 16 == 15)
            alloc.maintenance().step();
    }
    churn.drain();
    alloc.maintenance().step();

    CounterSnapshot snap = snapshot(alloc);
    alloc.detachThread(ctx);
    return snap;
}

TEST(Maintenance, SteppedOffModeIsDeterministic)
{
    CounterSnapshot a = steppedRun();
    CounterSnapshot b = steppedRun();
    EXPECT_GE(a.slices, 26u) << "every step() ran a slice";
    EXPECT_GE(a.fast, 1u);
    EXPECT_TRUE(a == b)
        << "identical stepped runs diverged: slices " << a.slices << "/"
        << b.slices << ", virtual_ns " << a.vns << "/" << b.vns;
}

TEST(Maintenance, OffWithoutStepRunsNothing)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    OpenResult r = NvAlloc::open(dev, maintConfig(MaintenanceMode::Off));
    ASSERT_TRUE(r);
    ThreadCtx *ctx = r.heap->attachThread();
    ASSERT_NE(ctx, nullptr);

    LargeChurn churn(*r.heap, *ctx);
    for (unsigned i = 0; i < 100; ++i)
        churn.step(i);
    churn.drain();

    EXPECT_EQ(readCtl(*r.heap, "stats.maintenance.slices"), 0u)
        << "Off mode must not run slices on its own";
    EXPECT_FALSE(r.heap->maintenance().threadRunning());
    r.heap->detachThread(ctx);
}

// ---------------------------------------------------------------------
// Epoch-based deferral.
// ---------------------------------------------------------------------

TEST(Maintenance, PinsDeferSlowGcUntilUnpin)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = maintConfig(MaintenanceMode::Off);
    cfg.log_file_bytes = 32 * 1024;
    cfg.log_gc_threshold = 0.9; // inline trigger never fires

    OpenResult r = NvAlloc::open(dev, cfg);
    ASSERT_TRUE(r);
    NvAlloc &alloc = *r.heap;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // Drive log occupancy past the wake level (0.75 × 0.9 = 0.675)
    // with a live/dead mix, so the pressure stage wants a slow GC and
    // has tombstones to drop when it runs.
    BookkeepingLog &log = alloc.bookkeepingLog();
    LargeChurn churn(alloc, *ctx);
    for (unsigned i = 0;
         log.activeChunks() < (log.maxChunks() * 70) / 100; ++i) {
        ASSERT_LT(i, 100000u) << "log never reached the wake level";
        churn.step(i);
    }

    MaintenanceService &m = alloc.maintenance();
    {
        MaintenanceService::PinGuard pin(m);
        m.step(); // reports no work: the one wanted stage was deferred
        EXPECT_GE(readCtl(alloc, "stats.maintenance.deferred"), 1u)
            << "slow GC must be deferred while a pin is held";
        EXPECT_EQ(readCtl(alloc, "stats.maintenance.log_slow_gc"), 0u);
    }
    size_t chunks_before = log.activeChunks();
    m.step();
    EXPECT_GE(readCtl(alloc, "stats.maintenance.log_slow_gc"), 1u)
        << "unpinning releases the deferred slow GC";
    EXPECT_LT(log.activeChunks(), chunks_before)
        << "slow GC dropped tombstoned chunks";
    EXPECT_GT(readCtl(alloc, "stats.maintenance.gc_virtual_ns"), 0u)
        << "the compaction's virtual time is attributed to maintenance";

    churn.drain();
    alloc.detachThread(ctx);
}

TEST(Maintenance, ForcedSliceIgnoresPause)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    OpenResult r = NvAlloc::open(dev, maintConfig(MaintenanceMode::Off));
    ASSERT_TRUE(r);
    MaintenanceService &m = r.heap->maintenance();

    m.pause();
    EXPECT_TRUE(m.paused());
    EXPECT_FALSE(m.step()) << "ordinary slices respect pause";
    EXPECT_EQ(readCtl(*r.heap, "stats.maintenance.slices"), 0u);

    m.reclaimSync(); // the out-of-memory path cannot wait for resume
    EXPECT_EQ(readCtl(*r.heap, "stats.maintenance.slices"), 1u);
    m.resume();
    EXPECT_FALSE(m.paused());
}

// ---------------------------------------------------------------------
// Thread mode: pressure wake-ups and GC-time attribution.
// ---------------------------------------------------------------------

TEST(Maintenance, ThreadModeWakesOnLogPressure)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = maintConfig(MaintenanceMode::Thread);
    cfg.log_file_bytes = 32 * 1024;
    cfg.log_gc_threshold = 0.5;

    OpenResult r = NvAlloc::open(dev, cfg);
    ASSERT_TRUE(r);
    NvAlloc &alloc = *r.heap;
    EXPECT_TRUE(alloc.maintenance().threadRunning());
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    LargeChurn churn(alloc, *ctx);
    for (unsigned i = 0; i < 1500; ++i)
        churn.step(i);
    churn.drain();

    EXPECT_GE(readCtl(alloc, "stats.maintenance.wakes"), 1u)
        << "large-path pressure polls never woke the worker";
    EXPECT_GE(readCtl(alloc, "stats.maintenance.slices"), 1u);

    // Attribution invariant: what maintenance absorbed is a subset of
    // the log's total GC time.
    uint64_t gc_total = 0, gc_maint = 0;
    ASSERT_EQ(alloc.ctlRead("stats.log.gc_ns", &gc_total), NvStatus::Ok);
    ASSERT_EQ(alloc.ctlRead("stats.maintenance.gc_virtual_ns", &gc_maint),
              NvStatus::Ok);
    EXPECT_LE(gc_maint, gc_total);
    EXPECT_GT(gc_maint, 0u)
        << "the worker never ran a GC despite sustained pressure";

    alloc.detachThread(ctx);
}

TEST(Maintenance, ThreadModeShutdownUnderChurn)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = maintConfig(MaintenanceMode::Thread);
    cfg.log_file_bytes = 64 * 1024;
    cfg.log_gc_threshold = 0.5;

    auto alloc = NvAlloc::openOrDie(dev, cfg);
    ASSERT_EQ(alloc->openStatus(), NvStatus::Ok);

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 2; ++t) {
        workers.emplace_back([&alloc, t] {
            ThreadCtx *ctx = alloc->attachThread();
            ASSERT_NE(ctx, nullptr);
            std::vector<uint64_t> offs;
            for (unsigned i = 0; i < 600; ++i) {
                size_t size = (i % 3 == t % 3) ? 32 * 1024 : 256;
                uint64_t off = alloc->allocOffset(*ctx, size, nullptr);
                if (off)
                    offs.push_back(off);
                if (offs.size() > 64) {
                    alloc->freeOffset(*ctx, offs.back(), nullptr);
                    offs.pop_back();
                }
            }
            for (uint64_t off : offs)
                alloc->freeOffset(*ctx, off, nullptr);
            alloc->detachThread(ctx);
        });
    }

    // A pause/resume/wake storm concurrent with the churn: pause() must
    // wait out in-flight slices, wake() must never deadlock with them.
    for (unsigned i = 0; i < 50; ++i) {
        alloc->maintenance().pause();
        alloc->maintenance().resume();
        alloc->maintenance().wake(MaintWakeReason::Explicit);
    }
    for (std::thread &w : workers)
        w.join();
    alloc.reset(); // destructor shuts the worker down first
}

TEST(Maintenance, ThreadModeSurvivesDirtyRestart)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = maintConfig(MaintenanceMode::Thread);
    cfg.log_file_bytes = 32 * 1024;
    cfg.log_gc_threshold = 0.5;

    uint64_t kept = 0;
    {
        OpenResult r = NvAlloc::open(dev, cfg);
        ASSERT_TRUE(r);
        ThreadCtx *ctx = r.heap->attachThread();
        ASSERT_NE(ctx, nullptr);
        LargeChurn churn(*r.heap, *ctx);
        for (unsigned i = 0; i < 300; ++i)
            churn.step(i);
        kept = churn.kept.size();
        r.heap->dirtyRestart(); // worker joins before the flags freeze
    }

    OpenResult r = NvAlloc::open(dev, cfg);
    ASSERT_EQ(r.status, NvStatus::Ok);
    EXPECT_TRUE(r.heap->lastRecovery().performed);
    EXPECT_TRUE(r.heap->lastRecovery().after_failure);
    EXPECT_EQ(r.heap->lastRecovery().extents_rebuilt, kept);
    EXPECT_TRUE(r.heap->maintenance().threadRunning())
        << "maintenance restarts after a recovered open";

    ThreadCtx *ctx = r.heap->attachThread();
    ASSERT_NE(ctx, nullptr);
    uint64_t off = r.heap->allocOffset(*ctx, 32 * 1024, nullptr);
    EXPECT_NE(off, 0u);
    EXPECT_EQ(r.heap->freeOffset(*ctx, off, nullptr), NvStatus::Ok);
    r.heap->detachThread(ctx);
}

// ---------------------------------------------------------------------
// The ctl surface.
// ---------------------------------------------------------------------

TEST(Maintenance, CtlActionsAndCounters)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    OpenResult r = NvAlloc::open(dev, maintConfig(MaintenanceMode::Off));
    ASSERT_TRUE(r);
    NvAlloc &alloc = *r.heap;

    uint64_t v = 0;
    EXPECT_EQ(alloc.ctlRead("maintenance.step", &v), NvStatus::Ok);
    EXPECT_EQ(alloc.ctlRead("stats.maintenance.slices", &v),
              NvStatus::Ok);
    EXPECT_EQ(v, 1u);

    EXPECT_EQ(alloc.ctlRead("maintenance.pause", &v), NvStatus::Ok);
    EXPECT_TRUE(alloc.maintenance().paused());
    EXPECT_EQ(alloc.ctlRead("stats.maintenance.paused", &v),
              NvStatus::Ok);
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(alloc.ctlRead("maintenance.resume", &v), NvStatus::Ok);
    EXPECT_FALSE(alloc.maintenance().paused());

    EXPECT_EQ(alloc.ctlRead("maintenance.selfdestruct", &v),
              NvStatus::UnknownCtl);
    EXPECT_EQ(alloc.maintenanceControl("bogus"),
              NvStatus::InvalidArgument);

    EXPECT_EQ(alloc.ctlRead("stats.maintenance.mode", &v), NvStatus::Ok);
    EXPECT_EQ(v, uint64_t(MaintenanceMode::Off));
    EXPECT_EQ(alloc.ctlRead("stats.maintenance.virtual_ns", &v),
              NvStatus::Ok);
}

// ---------------------------------------------------------------------
// The open() factory.
// ---------------------------------------------------------------------

TEST(OpenFactory, RejectsInvalidConfigWithoutTouchingDevice)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);

    NvAllocConfig bad;
    bad.bit_stripes = 0;
    OpenResult r = NvAlloc::open(dev, bad);
    EXPECT_EQ(r.status, NvStatus::InvalidArgument);
    EXPECT_EQ(r.heap, nullptr);
    EXPECT_FALSE(r);

    // The rejected open never formatted the device: a good open still
    // takes the create path, not recovery.
    OpenResult ok = NvAlloc::open(dev, NvAllocConfig{});
    ASSERT_TRUE(ok);
    EXPECT_FALSE(ok.heap->lastRecovery().performed);
}

TEST(OpenFactory, OpenOrDieAgreesWithOpen)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    {
        OpenResult r = NvAlloc::open(dev, maintConfig(MaintenanceMode::Off));
        ASSERT_TRUE(r);
        ThreadCtx *ctx = r.heap->attachThread();
        ASSERT_NE(ctx, nullptr);
        uint64_t off = r.heap->allocOffset(*ctx, 256, nullptr);
        EXPECT_NE(off, 0u);
        EXPECT_EQ(r.heap->freeOffset(*ctx, off, nullptr), NvStatus::Ok);
        r.heap->detachThread(ctx);
    }
    // Same device, the assert-on-misuse convenience factory (which
    // replaced the retired two-step constructor): recovery of the
    // clean shutdown, identical observable state.
    auto again = NvAlloc::openOrDie(dev, maintConfig(MaintenanceMode::Off));
    EXPECT_EQ(again->openStatus(), NvStatus::Ok);
    EXPECT_TRUE(again->lastRecovery().performed);
    ThreadCtx *ctx = again->attachThread();
    ASSERT_NE(ctx, nullptr);
    uint64_t off = again->allocOffset(*ctx, 256, nullptr);
    EXPECT_NE(off, 0u);
    again->detachThread(ctx);
}

// ---------------------------------------------------------------------
// The allocator registry.
// ---------------------------------------------------------------------

TEST(Registry, KnowsEveryBuiltin)
{
    PmAllocatorRegistry &reg = PmAllocatorRegistry::instance();
    for (const char *name : {"pmdk", "nvm_malloc", "pallocator",
                             "makalu", "ralloc", "nvalloc", "nvalloc-gc"})
        EXPECT_TRUE(reg.known(name)) << name;
    EXPECT_FALSE(reg.known("tcmalloc"));
    EXPECT_GE(reg.names().size(), 7u);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    EXPECT_EQ(reg.make("tcmalloc", dev), nullptr);
}

TEST(Registry, MakesWorkingAllocatorsByName)
{
    PmAllocatorRegistry &reg = PmAllocatorRegistry::instance();
    for (const char *name : {"nvalloc", "nvalloc-gc", "pmdk"}) {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{128} << 20;
        PmDevice dev(dcfg);
        std::unique_ptr<PmAllocator> a = reg.make(name, dev);
        ASSERT_NE(a, nullptr) << name;
        AllocThread *t = a->threadAttach();
        ASSERT_NE(t, nullptr) << name;
        uint64_t off = a->allocTo(t, 512, nullptr);
        EXPECT_NE(off, 0u) << name;
        a->freeFrom(t, off, nullptr);
        a->threadDetach(t);
    }
}

TEST(Registry, TweakReachesNvAllocConfig)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    MakeOptions opts;
    opts.tweak_nvalloc = [](NvAllocConfig &c) {
        c.maintenance_mode = MaintenanceMode::Thread;
    };
    std::unique_ptr<PmAllocator> a =
        PmAllocatorRegistry::instance().make("nvalloc", dev, opts);
    ASSERT_NE(a, nullptr);
    auto *adapter = dynamic_cast<NvAllocAdapter *>(a.get());
    ASSERT_NE(adapter, nullptr);
    EXPECT_EQ(adapter->impl().config().maintenance_mode,
              MaintenanceMode::Thread);
    EXPECT_TRUE(a->stronglyConsistent());
}

} // namespace
} // namespace nvalloc
