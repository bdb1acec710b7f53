/**
 * @file
 * Graceful-degradation tests: heap, log, and thread-slot exhaustion
 * must surface as status codes — never aborts — and the heap must
 * remain fully usable (frees, then fresh allocations) afterwards.
 *
 * The degraded-mode state machine under test (see DESIGN.md):
 *
 *   Normal --(alloc fails fast path)--> Reclaiming --(retry ok)--> Normal
 *                                          |
 *                                          +--(retry fails)--> Exhausted
 *
 * plus the terminal Failed mode entered only at open time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"

namespace nvalloc {
namespace {

NvAllocConfig
logConfig()
{
    NvAllocConfig cfg;
    cfg.consistency = Consistency::Log;
    return cfg;
}

// ---------------------------------------------------------------------
// Satellite 1: allocTo returns 0 on exhaustion; heap usable after.
// ---------------------------------------------------------------------

TEST(Exhaustion, LargeAllocExhaustsGracefullyAndRecovers)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{32} << 20; // tiny device
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, logConfig());
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 1000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx, 1 << 20, nullptr);
        if (off == 0)
            break;
        offs.push_back(off);
    }
    ASSERT_FALSE(offs.empty());
    ASSERT_LT(offs.size(), 1000u) << "device never exhausted";

    // The failure is a status, not an abort, and is accounted.
    NvStatus why = alloc.lastStatus();
    EXPECT_TRUE(why == NvStatus::OutOfMemory ||
                why == NvStatus::RegionTableFull)
        << nvStatusName(why);
    EXPECT_EQ(alloc.mode(), HeapMode::Exhausted);
    EXPECT_GE(readCtl(alloc, "stats.degraded.failed_allocs"), 1u);
    EXPECT_GE(readCtl(alloc, "stats.degraded.reclaim_attempts"), 1u);
    // One reclaim path in every mode: the default mode ran one forced
    // maintenance slice per reclaim attempt.
    EXPECT_EQ(readCtl(alloc, "stats.maintenance.mode"), 0u);
    EXPECT_EQ(readCtl(alloc, "stats.maintenance.slices"),
              readCtl(alloc, "stats.degraded.reclaim_attempts"));

    // Back-to-back failures with nothing freed in between each run
    // their forced slice, but a slow log GC that cannot free a chunk
    // is skipped: the log is copied at most once over all of them.
    uint64_t slow_gcs = readCtl(alloc, "stats.maintenance.log_slow_gc");
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(alloc.allocOffset(*ctx, 1 << 20, nullptr), 0u);
    EXPECT_LE(readCtl(alloc, "stats.maintenance.log_slow_gc"),
              slow_gcs + 1);
    EXPECT_EQ(readCtl(alloc, "stats.maintenance.slices"),
              readCtl(alloc, "stats.degraded.reclaim_attempts"));

    // The heap stays usable for frees...
    for (uint64_t off : offs)
        EXPECT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);

    // ...and for fresh allocations, returning the mode to Normal.
    uint64_t again = alloc.allocOffset(*ctx, 1 << 20, nullptr);
    EXPECT_NE(again, 0u);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);
    alloc.freeOffset(*ctx, again, nullptr);
    alloc.detachThread(ctx);
}

TEST(Exhaustion, RegionTableFullIsCountedByReason)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{2} << 30;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, logConfig());
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // Every request just over 2 MiB maps a direct region of its own,
    // so the persistent region table runs out of slots long before
    // the device runs out of space.
    const size_t kDirect = (size_t{2} << 20) + 4096;
    uint64_t served = 0;
    while (alloc.allocOffset(*ctx, kDirect, nullptr) != 0)
        ASSERT_LT(++served, 4096u) << "region table never filled";
    EXPECT_EQ(alloc.lastStatus(), NvStatus::RegionTableFull);

    // The failure is counted once, under its reason.
    EXPECT_EQ(readCtl(alloc, "stats.alloc.failed_by.region_table_full"),
              1u);
    EXPECT_EQ(readCtl(alloc, "stats.alloc.failed"), 1u);
    EXPECT_EQ(readCtl(alloc, "stats.large.regions_mapped"), served);
    // The gauges name the cause: every slot of the table is in use.
    EXPECT_EQ(readCtl(alloc, "stats.large.region_slots_total"), 448u);
    EXPECT_EQ(readCtl(alloc, "stats.large.region_slots_used"), 448u);
    alloc.detachThread(ctx);
}

TEST(Exhaustion, FullSlabQuarantineListIsCounted)
{
    // The persistent quarantine list has kQuarantineSlots entries; a
    // recovery that refuses more slabs still skips them all, and
    // counts each refusal it could not record.
    PmDevice dev;
    std::vector<uint64_t> slabs;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, logConfig());
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        // One block per size class puts each in a slab of its own.
        for (size_t size = 16; slabs.size() < kQuarantineSlots + 1;
             size += 16) {
            uint64_t off = alloc.allocOffset(*ctx, size, nullptr);
            ASSERT_NE(off, 0u);
            uint64_t slab = static_cast<VSlab *>(alloc.slabRadix().get(off))
                                ->slabOffset();
            if (std::find(slabs.begin(), slabs.end(), slab) == slabs.end())
                slabs.push_back(slab);
        }
        alloc.detachThread(ctx);
    }
    for (uint64_t slab : slabs)
        static_cast<SlabHeader *>(dev.at(slab))->magic = 0;

    auto again_h = NvAlloc::openOrDie(dev, logConfig());
    NvAlloc &again = *again_h;
    EXPECT_EQ(again.quarantinedSlabs().size(), size_t{kQuarantineSlots});
    EXPECT_EQ(readCtl(again, "stats.recovery.slabs_quarantined"),
              kQuarantineSlots + 1u);
    EXPECT_EQ(readCtl(again, "stats.degraded.quarantine_list_full"), 1u);
}

TEST(Exhaustion, SmallAllocExhaustsGracefullyAndRecovers)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{16} << 20;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, logConfig());
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 100000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx, 4096, nullptr);
        if (off == 0)
            break;
        offs.push_back(off);
    }
    ASSERT_FALSE(offs.empty());
    ASSERT_LT(offs.size(), 100000u) << "device never exhausted";
    EXPECT_EQ(alloc.mode(), HeapMode::Exhausted);
    EXPECT_GE(readCtl(alloc, "stats.degraded.failed_allocs"), 1u);

    for (uint64_t off : offs)
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);

    uint64_t again = alloc.allocOffset(*ctx, 4096, nullptr);
    EXPECT_NE(again, 0u);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);
    alloc.freeOffset(*ctx, again, nullptr);
    alloc.detachThread(ctx);
}

TEST(Exhaustion, UnserviceableSizesAreInvalidArgument)
{
    PmDevice dev;
    auto alloc_h = NvAlloc::openOrDie(dev);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    EXPECT_EQ(alloc.allocOffset(*ctx, 0, nullptr), 0u);
    EXPECT_EQ(alloc.lastStatus(), NvStatus::InvalidArgument);

    // Beyond the log entry's representable size: refused up front,
    // without a reclamation attempt (retry is moot).
    uint64_t before = readCtl(alloc, "stats.degraded.reclaim_attempts");
    EXPECT_EQ(alloc.allocOffset(*ctx, uint64_t{1} << 26, nullptr), 0u);
    EXPECT_EQ(alloc.lastStatus(), NvStatus::InvalidArgument);
    EXPECT_EQ(readCtl(alloc, "stats.degraded.reclaim_attempts"), before);

    // The refusals left the heap fully usable.
    uint64_t off = alloc.allocOffset(*ctx, 256, nullptr);
    EXPECT_NE(off, 0u);
    alloc.freeOffset(*ctx, off, nullptr);
    alloc.detachThread(ctx);
}

// ---------------------------------------------------------------------
// Tentpole: the reclamation slow path (drain tcaches, force log GC /
// decay) runs before an allocation is failed, and a retry after it
// counts as a reclaim success.
// ---------------------------------------------------------------------

TEST(Exhaustion, ReclaimThenRetrySucceedsViaTcacheDrain)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{32} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = logConfig();
    cfg.slab_morphing = false; // frees park in the tcache (lent)
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *filler = alloc.attachThread();
    ASSERT_NE(filler, nullptr);

    // Fill the device with one size class.
    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 100000; ++i) {
        uint64_t off = alloc.allocOffset(*filler, 16 * 1024, nullptr);
        if (off == 0)
            break;
        offs.push_back(off);
    }
    ASSERT_GT(offs.size(), 16u);
    ASSERT_LT(offs.size(), 100000u) << "device never exhausted";

    // The exhaustion's forced maintenance slice asked every attached
    // thread for a cooperative tcache trim. A thread attached after it
    // has none pending, so only the reclaim path drains its tcache.
    alloc.detachThread(filler);
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // Return the last batch of blocks. With morphing disabled they
    // sit *lent* in this thread's tcache, pinning their slabs: the
    // heap now has free memory, but none that an arena refill or the
    // large allocator can see.
    for (unsigned i = 0; i < 16; ++i) {
        ASSERT_EQ(alloc.freeOffset(*ctx, offs.back(), nullptr),
                  NvStatus::Ok);
        offs.pop_back();
    }

    // A different size class needs a fresh slab, which only exists
    // after the reclamation slow path drains the tcache and releases
    // the emptied slabs back to the large allocator. The allocation
    // must succeed on the internal retry — exercising
    // Normal -> Reclaiming -> Normal, not -> Exhausted.
    uint64_t succ0 = readCtl(alloc, "stats.degraded.reclaim_successes");
    uint64_t off = alloc.allocOffset(*ctx, 64, nullptr);
    EXPECT_NE(off, 0u) << nvStatusName(alloc.lastStatus());
    EXPECT_GE(readCtl(alloc, "stats.degraded.reclaim_successes"), succ0 + 1);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);

    alloc.freeOffset(*ctx, off, nullptr);
    for (uint64_t o : offs)
        ASSERT_EQ(alloc.freeOffset(*ctx, o, nullptr), NvStatus::Ok);
    alloc.detachThread(ctx);
}

TEST(Exhaustion, LogPressureChurnNeverFailsAllocations)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = logConfig();
    cfg.log_file_bytes = 64 * 1024; // ~60 chunks; fills quickly
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // Churn large extents: every pair appends an allocation entry and
    // a tombstone, so the log cycles through full many times over.
    // The allocator's GC layers (fast GC, opportunistic slow GC, and
    // the reclamation slow path as last resort) must absorb all of it
    // without failing a single allocation.
    for (unsigned i = 0; i < 12000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx, 32 * 1024, nullptr);
        ASSERT_NE(off, 0u) << "iteration " << i << ": "
                           << nvStatusName(alloc.lastStatus());
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);
    }
    EXPECT_EQ(readCtl(alloc, "stats.degraded.failed_allocs"), 0u);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);
    alloc.detachThread(ctx);
}

TEST(Exhaustion, LogFullOfLiveEntriesFailsThenFreesUnblock)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = logConfig();
    cfg.log_file_bytes = 16 * 1024; // ~15 chunks, ~1.9k entries
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // All-live entries: slow GC has nothing to drop, so exhaustion is
    // real and the allocation must fail with a status.
    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 4000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx, 32 * 1024, nullptr);
        if (off == 0)
            break;
        offs.push_back(off);
    }
    ASSERT_FALSE(offs.empty());
    ASSERT_LT(offs.size(), 4000u) << "log never exhausted";
    EXPECT_EQ(alloc.lastStatus(), NvStatus::LogExhausted);
    EXPECT_EQ(alloc.mode(), HeapMode::Exhausted);

    // A direct request maps a region of its own before the log refuses
    // its entry; the refusal unwinds the whole region again.
    const uint64_t slots = readCtl(alloc, "stats.large.region_slots_used");
    const uint64_t mapped = readCtl(alloc, "stats.heap.mapped_bytes");
    const uint64_t unmapped = readCtl(alloc, "stats.large.regions_unmapped");
    EXPECT_EQ(alloc.allocOffset(*ctx, 5 << 20, nullptr), 0u);
    EXPECT_EQ(alloc.lastStatus(), NvStatus::LogExhausted);
    EXPECT_GT(readCtl(alloc, "stats.large.regions_unmapped"), unmapped);
    EXPECT_EQ(readCtl(alloc, "stats.large.region_slots_used"), slots);
    EXPECT_LE(readCtl(alloc, "stats.heap.mapped_bytes"), mapped);
    EXPECT_EQ(readCtl(alloc, "stats.large.regions_mapped") -
                  readCtl(alloc, "stats.large.regions_unmapped"),
              slots);
    AuditReport rep = HeapAuditor(alloc).audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();

    // Frees still work (a full log only costs crash-journaling of the
    // deletion), and afterwards allocation resumes.
    for (uint64_t off : offs)
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);
    uint64_t again = alloc.allocOffset(*ctx, 32 * 1024, nullptr);
    EXPECT_NE(again, 0u);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);
    alloc.freeOffset(*ctx, again, nullptr);
    alloc.detachThread(ctx);
}

// ---------------------------------------------------------------------
// Hostile frees against an exhausted heap: the hardened validator
// keeps rejecting bad frees with a status while the heap is degraded,
// and valid frees still recover it.
// ---------------------------------------------------------------------

TEST(Exhaustion, HostileFreesWhileExhaustedAreRejectedAndHeapRecovers)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{16} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg = logConfig();
    cfg.redzone_canaries = true;
    cfg.quarantine_depth = 8;
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 100000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx, 4096, nullptr);
        if (off == 0)
            break;
        offs.push_back(off);
    }
    ASSERT_FALSE(offs.empty());
    ASSERT_LT(offs.size(), 100000u) << "device never exhausted";
    ASSERT_EQ(alloc.mode(), HeapMode::Exhausted);

    // Bad frees while exhausted: rejected, classified, no abort, and
    // the heap does not leave Exhausted on their account.
    EXPECT_EQ(alloc.freeOffset(*ctx, offs.front() + 8, nullptr),
              NvStatus::InvalidFree);
    ASSERT_EQ(alloc.freeOffset(*ctx, offs.back(), nullptr), NvStatus::Ok);
    uint64_t stale = offs.back();
    offs.pop_back();
    EXPECT_EQ(alloc.freeOffset(*ctx, stale, nullptr),
              NvStatus::InvalidFree);
    EXPECT_GE(readCtl(alloc, "stats.hardening.misaligned_frees"), 1u);
    EXPECT_GE(readCtl(alloc, "stats.hardening.double_frees"), 1u);
    EXPECT_EQ(alloc.mode(), HeapMode::Exhausted);

    // Valid frees still drain the heap and allocation resumes.
    for (uint64_t off : offs)
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);
    uint64_t again = alloc.allocOffset(*ctx, 4096, nullptr);
    EXPECT_NE(again, 0u);
    EXPECT_EQ(alloc.mode(), HeapMode::Normal);
    alloc.freeOffset(*ctx, again, nullptr);
    alloc.detachThread(ctx);
}

// ---------------------------------------------------------------------
// Satellite 2: thread-slot exhaustion returns nullptr, not an abort.
// ---------------------------------------------------------------------

TEST(Exhaustion, AttachSlotExhaustionReturnsNull)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev);
    NvAlloc &alloc = *alloc_h;

    std::vector<ThreadCtx *> ctxs;
    for (unsigned i = 0; i < kMaxThreads; ++i) {
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr) << "slot " << i;
        ctxs.push_back(ctx);
    }

    // Slot 129: refused with a status, heap untouched.
    EXPECT_EQ(alloc.attachThread(), nullptr);
    EXPECT_EQ(alloc.lastStatus(), NvStatus::TooManyThreads);
    EXPECT_GE(readCtl(alloc, "stats.degraded.failed_attaches"), 1u);

    // Detaching one frees a slot for a fresh attach.
    alloc.detachThread(ctxs.back());
    ctxs.pop_back();
    ThreadCtx *fresh = alloc.attachThread();
    EXPECT_NE(fresh, nullptr);
    if (fresh)
        ctxs.push_back(fresh);

    for (ThreadCtx *ctx : ctxs)
        alloc.detachThread(ctx);
}

} // namespace
} // namespace nvalloc
