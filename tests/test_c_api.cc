/**
 * @file
 * Tests of the paper-style C API veneer (nvalloc_init /
 * nvalloc_malloc_to / nvalloc_free_from / nvalloc_exit), including
 * implicit per-thread contexts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/nvalloc_c.h"

namespace nvalloc {
namespace {

TEST(CApi, InitMallocFreeExit)
{
    PmDevice dev;
    NvInstance *inst = nvalloc_init(&dev);
    uint64_t *root = nvalloc_root(inst, 0);

    void *p = nvalloc_malloc_to(inst, 128, root);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(*root, 0u);
    std::memset(p, 0x3c, 128);

    nvalloc_free_from(inst, root);
    EXPECT_EQ(*root, 0u);
    nvalloc_exit(inst);
}

TEST(CApi, GcVariantOption)
{
    PmDevice dev;
    NvAllocOptions opts;
    opts.gc_variant = true;
    NvInstance *inst = nvalloc_init(&dev, &opts);
    EXPECT_EQ(nvalloc_impl(inst)->config().consistency,
              Consistency::Gc);
    nvalloc_exit(inst);
}

TEST(CApi, ImplicitThreadContexts)
{
    PmDevice dev;
    NvInstance *inst = nvalloc_init(&dev);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            std::vector<uint64_t> words(50, 0);
            for (auto &w : words)
                ASSERT_NE(nvalloc_malloc_to(inst, 64, &w), nullptr);
            for (auto &w : words)
                nvalloc_free_from(inst, &w);
        });
    }
    for (auto &th : threads)
        th.join();
    nvalloc_exit(inst);
}

TEST(CApi, OomSurfacesAsErrno)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{32} << 20; // tiny device
    PmDevice dev(dcfg);
    NvInstance *inst = nvalloc_init(&dev);

    std::vector<uint64_t> words(64, 0);
    unsigned got = 0;
    for (auto &w : words) {
        if (nvalloc_malloc_to(inst, 1 << 20, &w) == nullptr)
            break;
        ++got;
    }
    ASSERT_GT(got, 0u);
    ASSERT_LT(got, words.size()) << "device never exhausted";
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_ENOMEM);

    // Frees keep working; then allocation resumes.
    for (auto &w : words) {
        if (w) {
            EXPECT_EQ(nvalloc_free_from(inst, &w), NVALLOC_OK);
        }
    }
    uint64_t again = 0;
    EXPECT_NE(nvalloc_malloc_to(inst, 1 << 20, &again), nullptr);
    nvalloc_free_from(inst, &again);
    nvalloc_exit(inst);
}

TEST(CApi, UnserviceableSizeIsErrnoNotAbort)
{
    PmDevice dev;
    NvInstance *inst = nvalloc_init(&dev);
    uint64_t w = 0;
    EXPECT_EQ(nvalloc_malloc_to(inst, 0, &w), nullptr);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);
    EXPECT_EQ(w, 0u);
    nvalloc_exit(inst);
}

TEST(CApi, AttachFailureIsEagainAndRetries)
{
    PmDevice dev;
    NvInstance *inst = nvalloc_init(&dev);

    // Fill every thread slot directly through the C++ core, so this
    // thread's implicit attach cannot get one.
    NvAlloc *core = nvalloc_impl(inst);
    std::vector<ThreadCtx *> hogs;
    for (unsigned i = 0; i < kMaxThreads; ++i) {
        ThreadCtx *ctx = core->attachThread();
        if (!ctx)
            break;
        hogs.push_back(ctx);
    }
    ASSERT_EQ(hogs.size(), kMaxThreads);

    uint64_t w = 0;
    EXPECT_EQ(nvalloc_malloc_to(inst, 64, &w), nullptr);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EAGAIN);
    EXPECT_EQ(nvalloc_free_from(inst, &w), NVALLOC_EAGAIN);

    // Once a slot frees up, the next implicit attach succeeds.
    core->detachThread(hogs.back());
    hogs.pop_back();
    EXPECT_NE(nvalloc_malloc_to(inst, 64, &w), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, &w), NVALLOC_OK);

    for (ThreadCtx *ctx : hogs)
        core->detachThread(ctx);
    nvalloc_exit(inst);
}

TEST(CApi, DoubleFreeAndForeignPointerAreEinvalHeapUnharmed)
{
    PmDevice dev;
    NvInstance *inst = nvalloc_init(&dev);
    uint64_t *root = nvalloc_root(inst, 0);

    ASSERT_NE(nvalloc_malloc_to(inst, 256, root), nullptr);
    uint64_t stale = *root;
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);

    // Double free through a stale copy of the word.
    EXPECT_EQ(nvalloc_free_from(inst, &stale), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);

    // Null word and foreign (never-allocated) pointer.
    uint64_t zero = 0;
    EXPECT_EQ(nvalloc_free_from(inst, &zero), NVALLOC_EINVAL);
    uint64_t foreign = dev.size() - 8192;
    EXPECT_EQ(nvalloc_free_from(inst, &foreign), NVALLOC_EINVAL);

    // The rejected frees left no structural damage: the auditor is
    // the oracle.
    AuditReport rep = HeapAuditor(*nvalloc_impl(inst)).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();

    // And the heap still allocates.
    EXPECT_NE(nvalloc_malloc_to(inst, 256, root), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    nvalloc_exit(inst);
}

// ---------------------------------------------------------------------
// The versioned nvalloc_open_ex surface.
// ---------------------------------------------------------------------

TEST(CApiOpenEx, EinvalContractLeavesOutUntouched)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *sentinel = reinterpret_cast<NvInstance *>(0x1);
    NvInstance *out = sentinel;

    EXPECT_EQ(nvalloc_open_ex(nullptr, &opts, &out), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_open_ex(&dev, nullptr, &out), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, nullptr), NVALLOC_EINVAL);

    opts.version = 0; // never a valid revision
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);
    opts.version = NVALLOC_OPTIONS_VERSION + 1; // from the future
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);

    nvalloc_options_init(&opts);
    opts.bit_stripes = 0; // fails NvAllocConfig::invalidReason
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);
    opts.bit_stripes = 6;
    opts.maintenance_mode = 42; // not an NvMaintenanceMode
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);

    EXPECT_EQ(out, sentinel) << "*out must be untouched on EINVAL";
}

TEST(CApiOpenEx, OkPathDrivesMaintenanceByAction)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    opts.maintenance_mode = NVALLOC_MAINT_OFF;

    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_impl(inst)->config().maintenance_mode,
              MaintenanceMode::Off);

    uint64_t *root = nvalloc_root(inst, 0);
    ASSERT_NE(nvalloc_malloc_to(inst, 128, root), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);

    EXPECT_EQ(nvalloc_maintenance(inst, "step"), NVALLOC_OK);
    uint64_t slices = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.maintenance.slices", &slices),
              NVALLOC_OK);
    EXPECT_EQ(slices, 1u);
    EXPECT_EQ(nvalloc_maintenance(inst, "pause"), NVALLOC_OK);
    EXPECT_EQ(nvalloc_maintenance(inst, "resume"), NVALLOC_OK);
    EXPECT_EQ(nvalloc_maintenance(inst, "wake"), NVALLOC_OK);
    EXPECT_EQ(nvalloc_maintenance(inst, "defragment"), NVALLOC_EINVAL);

    // The ctl alias runs the same dispatcher.
    uint64_t v = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "maintenance.step", &v), NVALLOC_OK);
    EXPECT_EQ(nvalloc_ctl(inst, "stats.maintenance.slices", &v),
              NVALLOC_OK);
    EXPECT_EQ(v, 2u);

    nvalloc_exit(inst);
}

TEST(CApiOpenEx, BadHardeningPolicyIsEinval)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *sentinel = reinterpret_cast<NvInstance *>(0x1);
    NvInstance *out = sentinel;

    opts.hardening_policy = 7; // not an NvHardeningPolicy
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);
    EXPECT_EQ(out, sentinel);

    opts.hardening_policy = NVALLOC_HARDEN_QUARANTINE;
    opts.quarantine_depth = 1u << 21; // fails invalidReason
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);
    EXPECT_EQ(out, sentinel);
}

TEST(CApiOpenEx, FastPathOptionsV4Contract)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *sentinel = reinterpret_cast<NvInstance *>(0x1);
    NvInstance *out = sentinel;

    // v4 misuse: an unknown mode is EINVAL.
    opts.fastpath = 7; // not an NvFastPathMode
    EXPECT_EQ(nvalloc_open_ex(&dev, &opts, &out), NVALLOC_EINVAL);
    EXPECT_EQ(out, sentinel) << "*out must be untouched on EINVAL";

    // A v3 caller's struct carries garbage where v4 added fields;
    // those bytes must never be read.
    nvalloc_options_init(&opts);
    opts.version = 3;
    opts.fastpath = 99;
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    nvalloc_exit(inst);

    // The retired locked mode still validates and opens the lock-free
    // engine: the heap serves a malloc and a free, and the first
    // refill goes through a region reservation.
    PmDevice dev2;
    nvalloc_options_init(&opts);
    opts.fastpath = NVALLOC_FASTPATH_LOCKED;
    inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev2, &opts, &inst), NVALLOC_OK);
    uint64_t *root = nvalloc_root(inst, 0);
    ASSERT_NE(nvalloc_malloc_to(inst, 96, root), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    uint64_t hits = 0, misses = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.fastpath.reserve_hits", &hits),
              NVALLOC_OK);
    EXPECT_EQ(nvalloc_ctl(inst, "stats.fastpath.reserve_misses", &misses),
              NVALLOC_OK);
    EXPECT_GT(hits + misses, 0u) << "locked mode maps to the lock-free engine";
    nvalloc_exit(inst);
}

TEST(CApiOpenEx, RetiredTuningFieldsAreIgnored)
{
    // maintenance_slice_ns, maintenance_wake_fraction,
    // maintenance_scrub_lines, patrol_scrub, patrol_items,
    // patrol_retries, fastpath_regions and fastpath_batch stay in the
    // layout but are fixed inside the library: values that once failed
    // validation, or switched the patrol off, now open with the patrol
    // running. The retired manual mode opens the default mode.
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    opts.maintenance_mode = NVALLOC_MAINT_MANUAL;
    opts.maintenance_slice_ns = 0;
    opts.maintenance_wake_fraction = 2.0;
    opts.patrol_scrub = 0;
    opts.patrol_items = 0;
    opts.patrol_retries = 0;
    opts.maintenance_scrub_lines = 0;
    opts.fastpath_regions = 0;
    opts.fastpath_batch = 513;
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_impl(inst)->config().maintenance_mode,
              MaintenanceMode::Off);
    uint64_t *root = nvalloc_root(inst, 0);
    ASSERT_NE(nvalloc_malloc_to(inst, 64, root), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    EXPECT_EQ(nvalloc_maintenance(inst, "step"), NVALLOC_OK);
    uint64_t patrols = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.maintenance.patrol_slices",
                          &patrols),
              NVALLOC_OK);
    EXPECT_EQ(patrols, 1u) << "the patrol still runs its fixed batch";
    nvalloc_exit(inst);
}

TEST(CApiOpenEx, HardeningOptionsMapThrough)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    opts.guard_sample_rate = 64;
    opts.redzone_canaries = 1;
    opts.quarantine_depth = 8;
    opts.hardening_policy = NVALLOC_HARDEN_QUARANTINE;

    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    const NvAllocConfig &cfg = nvalloc_impl(inst)->config();
    EXPECT_EQ(cfg.guard_sample_rate, 64u);
    EXPECT_TRUE(cfg.redzone_canaries);
    EXPECT_EQ(cfg.quarantine_depth, 8u);
    EXPECT_EQ(cfg.hardening_policy, HardeningPolicy::Quarantine);

    // The hardening counter family is reachable through nvalloc_ctl.
    uint64_t v = ~0ull;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.hardening.validated_frees", &v),
              NVALLOC_OK);
    EXPECT_EQ(v, 0u);
    nvalloc_exit(inst);
}

// ---------------------------------------------------------------------
// Hostile-free error contract: every class of bad free returns
// NVALLOC_EINVAL, never aborts, and leaves the heap audit-clean and
// serviceable.
// ---------------------------------------------------------------------

TEST(CApi, HostileFreeContractUnderFullHardening)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    opts.redzone_canaries = 1;
    opts.quarantine_depth = 8;
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    uint64_t *root = nvalloc_root(inst, 0);

    // Interior pointer into a small block.
    ASSERT_NE(nvalloc_malloc_to(inst, 256, root), nullptr);
    uint64_t small_off = *root;
    uint64_t interior = small_off + 8;
    EXPECT_EQ(nvalloc_free_from(inst, &interior), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);

    // Interior pointer into a large extent (past the slab radix, into
    // extent-classification territory).
    uint64_t lw = 0;
    ASSERT_NE(nvalloc_malloc_to(inst, 64 * 1024, &lw), nullptr);
    uint64_t large_interior = lw + 4096;
    EXPECT_EQ(nvalloc_free_from(inst, &large_interior), NVALLOC_EINVAL);

    // Double free through a stale copy; the real free goes first.
    uint64_t stale = small_off;
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    EXPECT_EQ(nvalloc_free_from(inst, &stale), NVALLOC_EINVAL);

    // Wild pointer into never-allocated space.
    uint64_t wild = dev.size() - 4096;
    EXPECT_EQ(nvalloc_free_from(inst, &wild), NVALLOC_EINVAL);

    // Each rejection was classified and counted.
    uint64_t misaligned = 0, doubled = 0, wilds = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.hardening.misaligned_frees",
                          &misaligned),
              NVALLOC_OK);
    EXPECT_EQ(nvalloc_ctl(inst, "stats.hardening.double_frees", &doubled),
              NVALLOC_OK);
    EXPECT_EQ(nvalloc_ctl(inst, "stats.hardening.wild_frees", &wilds),
              NVALLOC_OK);
    EXPECT_EQ(misaligned, 2u) << "small + large interior";
    EXPECT_EQ(doubled, 1u);
    EXPECT_EQ(wilds, 1u);

    // Contained: the heap audits clean and still serves.
    EXPECT_EQ(nvalloc_free_from(inst, &lw), NVALLOC_OK);
    AuditReport rep = HeapAuditor(*nvalloc_impl(inst)).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    ASSERT_NE(nvalloc_malloc_to(inst, 256, root), nullptr);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    nvalloc_exit(inst);
}

TEST(CApi, CrossHeapFreeIsEinvalAndAttributed)
{
    // Two live heaps on separate devices. Padding pushes heap B's
    // probe block to an offset heap A has never mapped, so the free
    // into A classifies as wild there — and the heap registry
    // attributes it to B.
    PmDevice dev_a, dev_b;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *a = nullptr, *b = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev_a, &opts, &a), NVALLOC_OK);
    ASSERT_EQ(nvalloc_open_ex(&dev_b, &opts, &b), NVALLOC_OK);

    uint64_t pad = 0;
    ASSERT_NE(nvalloc_malloc_to(b, 16u << 20, &pad), nullptr);
    uint64_t probe = 0;
    ASSERT_NE(nvalloc_malloc_to(b, 128, &probe), nullptr);
    ASSERT_FALSE(nvalloc_impl(a)->ownsOffset(probe))
        << "probe collided with heap A's own layout";

    uint64_t stale = probe;
    EXPECT_EQ(nvalloc_free_from(a, &stale), NVALLOC_EINVAL);
    uint64_t cross = 0;
    EXPECT_EQ(nvalloc_ctl(a, "stats.hardening.cross_heap_frees", &cross),
              NVALLOC_OK);
    EXPECT_EQ(cross, 1u);

    // Heap B's block is untouched by the rejected free.
    EXPECT_EQ(nvalloc_free_from(b, &probe), NVALLOC_OK);
    EXPECT_EQ(nvalloc_free_from(b, &pad), NVALLOC_OK);
    nvalloc_exit(a);
    nvalloc_exit(b);
}

TEST(CApi, FreeAfterDegradedOpenIsEinvalNotAbort)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{128} << 20;
    PmDevice dev(dcfg);
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    uint64_t leaked = 0;
    {
        NvInstance *inst = nullptr;
        ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
        ASSERT_NE(nvalloc_malloc_to(inst, 512, &leaked), nullptr);
        nvalloc_impl(inst)->dirtyRestart();
        nvalloc_exit(inst);
    }
    static_cast<uint8_t *>(dev.at(0))[16] ^= 0xff; // break the crc

    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_ECORRUPT);
    ASSERT_NE(inst, nullptr);

    // A free against the degraded instance — even of a once-valid
    // offset — is refused with a status, not an abort, and touches no
    // persistent state.
    EXPECT_EQ(nvalloc_free_from(inst, &leaked), NVALLOC_EINVAL);
    uint64_t zero = 0;
    EXPECT_EQ(nvalloc_free_from(inst, &zero), NVALLOC_EINVAL);
    nvalloc_exit(inst);
}

TEST(CApiOpenEx, CorruptImageReturnsDegradedInstanceForAuditing)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{128} << 20;
    PmDevice dev(dcfg);
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    {
        NvInstance *inst = nullptr;
        ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
        uint64_t w = 0;
        ASSERT_NE(nvalloc_malloc_to(inst, 512, &w), nullptr);
        nvalloc_impl(inst)->dirtyRestart(); // reopen takes recovery
        nvalloc_exit(inst);
    }
    // Corrupt the superblock body so the recovery crc check fails.
    static_cast<uint8_t *>(dev.at(0))[16] ^= 0xff;

    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_ECORRUPT);
    ASSERT_NE(inst, nullptr) << "degraded instance must be returned";
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_ECORRUPT);

    // Allocation is refused with the open status...
    uint64_t w = 0;
    EXPECT_EQ(nvalloc_malloc_to(inst, 64, &w), nullptr);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_ECORRUPT);

    // ...but introspection works: the auditor sees the violations.
    uint64_t mode = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.mode.current", &mode), NVALLOC_OK);
    EXPECT_EQ(mode, uint64_t(HeapMode::Failed));
    AuditReport rep = HeapAuditor(*nvalloc_impl(inst)).audit();
    EXPECT_GT(rep.violations(), 0u) << rep.summary();
    nvalloc_exit(inst);
}

// ---------------------------------------------------------------------
// Transaction surface (DESIGN.md §11): the happy path through the C
// veneer, and the error contract — every misuse returns NVALLOC_EINVAL
// with nvalloc_errno set, never an abort(), and the heap keeps
// serving.
// ---------------------------------------------------------------------

TEST(CApiTx, AtomicGroupCommitsThroughTheVeneer)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    uint64_t *root = nvalloc_root(inst, 0);
    uint64_t *flag = nvalloc_root(inst, 1);

    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    void *p = nvalloc_tx_alloc(inst, 192, root);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, 192);
    EXPECT_EQ(*root, 0u) << "publish must wait for commit";
    ASSERT_EQ(nvalloc_tx_write(inst, flag, 0xf1a6), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_commit(inst), NVALLOC_OK);
    EXPECT_NE(*root, 0u);
    EXPECT_EQ(*flag, 0xf1a6u);

    // Free + pointer clear as one atomic group.
    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_free(inst, root), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_write(inst, root, 0), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_write(inst, flag, 0), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_commit(inst), NVALLOC_OK);
    EXPECT_EQ(*root, 0u);

    AuditReport rep = HeapAuditor(*nvalloc_impl(inst)).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    nvalloc_exit(inst);
}

TEST(CApiTx, NestedBeginIsEinvalAndOuterTxSurvives)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    uint64_t *root = nvalloc_root(inst, 0);

    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_tx_begin(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);

    // The rejection did not disturb the outer transaction.
    ASSERT_NE(nvalloc_tx_alloc(inst, 64, root), nullptr);
    ASSERT_EQ(nvalloc_tx_commit(inst), NVALLOC_OK);
    EXPECT_NE(*root, 0u);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    nvalloc_exit(inst);
}

TEST(CApiTx, OpsOutsideAnOpenTxAreEinval)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    uint64_t *root = nvalloc_root(inst, 0);
    ASSERT_NE(nvalloc_malloc_to(inst, 64, root), nullptr);
    uint64_t word = 0;

    // Never begun.
    EXPECT_EQ(nvalloc_tx_alloc(inst, 64, &word), nullptr);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_free(inst, root), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_write(inst, root, 1), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_commit(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_abort(inst), NVALLOC_EINVAL);

    // After a commit the transaction is closed: ops are EINVAL again.
    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_commit(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_tx_write(inst, root, 1), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_commit(inst), NVALLOC_EINVAL);

    // Same after an abort.
    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_abort(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_tx_alloc(inst, 64, &word), nullptr);
    EXPECT_EQ(nvalloc_tx_abort(inst), NVALLOC_EINVAL);

    // A null/zero where word for tx_free is rejected up front.
    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_tx_free(inst, nullptr), NVALLOC_EINVAL);
    uint64_t zero = 0;
    EXPECT_EQ(nvalloc_tx_free(inst, &zero), NVALLOC_EINVAL);
    ASSERT_EQ(nvalloc_tx_abort(inst), NVALLOC_OK);

    // The word the rejected ops named was never touched, and the heap
    // still serves plain traffic.
    EXPECT_NE(*root, 0u);
    EXPECT_EQ(nvalloc_free_from(inst, root), NVALLOC_OK);
    AuditReport rep = HeapAuditor(*nvalloc_impl(inst)).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    nvalloc_exit(inst);
}

TEST(CApiTx, TxWriteFromNonOwningThreadIsEinval)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
    uint64_t *flag = nvalloc_root(inst, 1);

    // A transaction is per-thread: another thread touching its words
    // through the tx surface has no open transaction of its own, so
    // the call is refused on that thread.
    ASSERT_EQ(nvalloc_tx_begin(inst), NVALLOC_OK);
    ASSERT_EQ(nvalloc_tx_write(inst, flag, 0xa11), NVALLOC_OK);
    std::thread outsider([&] {
        EXPECT_EQ(nvalloc_tx_write(inst, flag, 0xbad), NVALLOC_EINVAL);
        EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);
        EXPECT_EQ(nvalloc_tx_commit(inst), NVALLOC_EINVAL);
    });
    outsider.join();
    EXPECT_EQ(*flag, 0xa11u) << "outsider write must not land";
    ASSERT_EQ(nvalloc_tx_abort(inst), NVALLOC_OK);
    EXPECT_EQ(*flag, 0u) << "abort rolls back the owner's write";
    nvalloc_exit(inst);
}

TEST(CApiTx, DegradedOpenRejectsEveryTxCall)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{128} << 20;
    PmDevice dev(dcfg);
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    uint64_t leaked = 0;
    {
        NvInstance *inst = nullptr;
        ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_OK);
        ASSERT_NE(nvalloc_malloc_to(inst, 512, &leaked), nullptr);
        nvalloc_impl(inst)->dirtyRestart();
        nvalloc_exit(inst);
    }
    static_cast<uint8_t *>(dev.at(0))[16] ^= 0xff; // break the crc

    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_ex(&dev, &opts, &inst), NVALLOC_ECORRUPT);
    ASSERT_NE(inst, nullptr);

    uint64_t word = 0;
    EXPECT_EQ(nvalloc_tx_begin(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_errno(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_alloc(inst, 64, &word), nullptr);
    EXPECT_EQ(nvalloc_tx_free(inst, &leaked), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_write(inst, &word, 1), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_commit(inst), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_tx_abort(inst), NVALLOC_EINVAL);
    EXPECT_EQ(word, 0u);

    uint64_t rejected = 0;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.tx.rejected", &rejected),
              NVALLOC_OK);
    EXPECT_GE(rejected, 6u);
    nvalloc_exit(inst);
}

// ---------------------------------------------------------------------
// Named (pool) opens: refcounted sharing, the options-mismatch EINVAL
// contract, and the health ABI.
// ---------------------------------------------------------------------

TEST(CApiPool, NamedOpenIdenticalOptionsSharesOneInstance)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);

    NvInstance *a = nullptr;
    NvInstance *b = nullptr;
    ASSERT_EQ(nvalloc_open_named(&dev, "capi-shared", &opts, &a),
              NVALLOC_OK);
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(nvalloc_open_named(&dev, "capi-shared", &opts, &b),
              NVALLOC_OK);
    EXPECT_EQ(a, b) << "identical reopen must share the instance";

    // Dropping one handle leaves the shared heap serving.
    nvalloc_exit(b);
    uint64_t w = 0;
    ASSERT_NE(nvalloc_malloc_to(a, 192, &w), nullptr);
    EXPECT_EQ(nvalloc_free_from(a, &w), NVALLOC_OK);
    EXPECT_EQ(nvalloc_health(a), NVALLOC_HEALTH_SERVING);
    nvalloc_exit(a);
}

TEST(CApiPool, NamedOpenOptionsMismatchIsEinvalNeverFirstWins)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);

    NvInstance *first = nullptr;
    ASSERT_EQ(nvalloc_open_named(&dev, "capi-mismatch", &opts, &first),
              NVALLOC_OK);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(nvalloc_errno(first), NVALLOC_OK);

    // Same name, different effective configuration: hard EINVAL with
    // *out untouched — not a silent handle onto the first config.
    nvalloc_options other;
    nvalloc_options_init(&other);
    other.gc_variant = 1;
    NvInstance *sentinel = reinterpret_cast<NvInstance *>(0x1);
    NvInstance *out = sentinel;
    EXPECT_EQ(nvalloc_open_named(&dev, "capi-mismatch", &other, &out),
              NVALLOC_EINVAL);
    EXPECT_EQ(out, sentinel) << "*out must be untouched on EINVAL";

    // The existing member records the refused open, errno style.
    EXPECT_EQ(nvalloc_errno(first), NVALLOC_EINVAL);

    // ...and is otherwise unharmed: still serving, still allocating.
    EXPECT_EQ(nvalloc_health(first), NVALLOC_HEALTH_SERVING);
    uint64_t w = 0;
    ASSERT_NE(nvalloc_malloc_to(first, 256, &w), nullptr);
    EXPECT_EQ(nvalloc_free_from(first, &w), NVALLOC_OK);

    // Invalid arguments never consult (or disturb) the pool.
    EXPECT_EQ(nvalloc_open_named(nullptr, "x", &opts, &out),
              NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_open_named(&dev, nullptr, &opts, &out),
              NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_open_named(&dev, "x", nullptr, &out),
              NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_open_named(&dev, "x", &opts, nullptr),
              NVALLOC_EINVAL);
    EXPECT_EQ(out, sentinel);

    nvalloc_exit(first);

    // The last exit closed the member: the name is reusable with a
    // different configuration afterwards.
    NvInstance *again = nullptr;
    PmDevice dev2;
    ASSERT_EQ(nvalloc_open_named(&dev2, "capi-mismatch", &other, &again),
              NVALLOC_OK);
    EXPECT_EQ(nvalloc_impl(again)->config().consistency,
              Consistency::Gc);
    nvalloc_exit(again);
}

TEST(CApiPool, HealthAbiRoundTripsThroughRestore)
{
    PmDevice dev;
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    NvInstance *inst = nullptr;
    ASSERT_EQ(nvalloc_open_named(&dev, "capi-health", &opts, &inst),
              NVALLOC_OK);

    EXPECT_EQ(nvalloc_health(inst), NVALLOC_HEALTH_SERVING);
    uint64_t st = ~0ull;
    EXPECT_EQ(nvalloc_ctl(inst, "stats.health.state", &st), NVALLOC_OK);
    EXPECT_EQ(st, uint64_t{NVALLOC_HEALTH_SERVING});

    // restore on a clean heap is an audit + no-op transition.
    EXPECT_EQ(nvalloc_restore_health(inst), NVALLOC_OK);
    EXPECT_EQ(nvalloc_health(inst), NVALLOC_HEALTH_SERVING);
    nvalloc_exit(inst);
}

} // namespace
} // namespace nvalloc
