/**
 * @file
 * Lock-free small-path tests (DESIGN.md §14): the hit path takes no
 * VLock, racing claims never hand out a block twice, region slots
 * steal across arenas, crash points inside reservation refills
 * recover to a clean heap, and a 128-thread Larson-style churn stays
 * audit-clean under virtual time.
 *
 * Honours the CI matrix envs: NVALLOC_MAINTENANCE=off|manual|thread
 * and NVALLOC_HARDENING=full (canaries and the quarantine ride the
 * same lock-free free path, so the lock-freedom asserts hold there too).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"

namespace nvalloc {
namespace {

// ---------------------------------------------------------------------
// The acceptance gate: zero VLock acquisitions on the alloc/free hit
// path, plain and transactional. The thread-local acquisition counter
// in vlock.h observes every VLock::lock() on this thread, so a zero
// delta proves the whole call chain — tcache pop, gate entry, bitfield
// CAS, canary check, WAL append, publish, quarantine push and eviction,
// tx validation and commit-time retire — took no lock.
// ---------------------------------------------------------------------
TEST(FastPath, HitPathAcquiresNoVLocks)
{
    NvAllocConfig cfg = envConfig();

    PmDeviceConfig dcfg;
    dcfg.size = size_t{128} << 20;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);

    // Warm: the first allocation funds the tcache (locked refill is
    // expected there); the frees refill it for the measured rounds.
    std::vector<uint64_t> warm;
    for (unsigned i = 0; i < 16; ++i)
        warm.push_back(alloc.allocOffset(*ctx, 64, nullptr));
    for (uint64_t off : warm)
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);

    // Measured rounds: every alloc hits the tcache, every free takes
    // the lock-free gate — into the tcache, or under the hardening leg
    // into the quarantine, whose evictions return blocks lock-free.
    uint64_t alloc_locks = 0;
    uint64_t free_locks = 0;
    for (unsigned round = 0; round < 8; ++round) {
        uint64_t t0 = tl_vlock_acquisitions;
        uint64_t off = alloc.allocOffset(*ctx, 64, nullptr);
        alloc_locks += tl_vlock_acquisitions - t0;
        ASSERT_NE(off, 0u);
        t0 = tl_vlock_acquisitions;
        ASSERT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);
        free_locks += tl_vlock_acquisitions - t0;
    }

    EXPECT_EQ(alloc_locks, 0u) << "alloc hit path acquired a VLock";
    EXPECT_EQ(free_locks, 0u) << "free hit path acquired a VLock";

    // Transactional frees: txFree validates through the same gate and
    // txCommit retires through it, neither under the arena lock.
    std::vector<uint64_t> staged;
    for (unsigned i = 0; i < 8; ++i)
        staged.push_back(alloc.allocOffset(*ctx, 64, nullptr));
    uint64_t tx_locks = 0;
    for (uint64_t off : staged) {
        ASSERT_NE(off, 0u);
        uint64_t t0 = tl_vlock_acquisitions;
        ASSERT_EQ(alloc.txBegin(*ctx), NvStatus::Ok);
        ASSERT_EQ(alloc.txFree(*ctx, off), NvStatus::Ok);
        ASSERT_EQ(alloc.txCommit(*ctx), NvStatus::Ok);
        tx_locks += tl_vlock_acquisitions - t0;
        EXPECT_FALSE(blockIsLive(alloc, off)) << "commit retired it";
    }
    EXPECT_EQ(tx_locks, 0u) << "transactional free acquired a VLock";

    alloc.detachThread(ctx);
}

// ---------------------------------------------------------------------
// CAS-retry storm: hostile threads hammer the same size class — and
// therefore the same slabs and bitfield words. The oracle is block
// identity: no offset may ever be handed to two threads at once, and
// the final live count must match the survivors exactly. Run under
// TSan in the tsan-fastpath CI leg, this is also the data-race proof
// for the claim cascade.
// ---------------------------------------------------------------------
TEST(FastPath, CasRetryStormNeverDoublesABlock)
{
    NvAllocConfig cfg = envConfig();
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;

    constexpr unsigned kThreads = 8;
    constexpr unsigned kOps = 3000;
    std::vector<std::vector<uint64_t>> survivors(kThreads);
    std::atomic<unsigned> failures{0};

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            ThreadCtx *ctx = alloc.attachThread();
            if (!ctx) {
                failures.fetch_add(1);
                return;
            }
            Rng rng(1000 + t);
            std::vector<uint64_t> mine;
            for (unsigned op = 0; op < kOps; ++op) {
                if (mine.empty() || rng.nextBounded(3) != 0) {
                    uint64_t off = alloc.allocOffset(*ctx, 64, nullptr);
                    if (off == 0) {
                        failures.fetch_add(1);
                        break;
                    }
                    // Dirty the block: overlapping grants would show
                    // up as torn stamps under TSan and in the
                    // uniqueness check below.
                    std::memset(alloc.at(off), int('a' + t), 64);
                    mine.push_back(off);
                } else {
                    size_t pick = rng.nextBounded(mine.size());
                    if (alloc.freeOffset(*ctx, mine[pick], nullptr) !=
                        NvStatus::Ok) {
                        failures.fetch_add(1);
                        break;
                    }
                    mine[pick] = mine.back();
                    mine.pop_back();
                }
            }
            survivors[t] = std::move(mine);
            alloc.detachThread(ctx);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0u);

    // Block identity: every surviving offset is unique and live.
    std::set<uint64_t> all;
    for (auto &v : survivors) {
        for (uint64_t off : v) {
            EXPECT_TRUE(all.insert(off).second)
                << "offset " << off << " granted twice";
            EXPECT_TRUE(blockIsLive(alloc, off));
        }
    }
    EXPECT_EQ(liveSmallBlocks(alloc), all.size());

    // The reservation machinery actually ran (not the locked
    // fallback throughout).
    EXPECT_GT(readCtl(alloc, "stats.fastpath.reserve_hits"), 0u);

    AuditReport rep = HeapAuditor(alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

// ---------------------------------------------------------------------
// Region steal: sibling raiding is the ladder's last resort — it
// fires only when the thread's own arena is truly dry (no freelist
// slab, no morph candidate, new slab refused). Exhaust the heap so
// arena B cannot carve a slab, leave availability only on arena A,
// and a hostile thread on B must serve its allocation from A — via
// A's region slots (lock-free) or A's locked refill — counting a
// region steal either way.
// ---------------------------------------------------------------------
TEST(FastPath, RegionStealServesExhaustedPeerArena)
{
    NvAllocConfig cfg = envConfig();
    cfg.num_arenas = 2;

    PmDeviceConfig dcfg;
    dcfg.size = size_t{64} << 20;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ASSERT_GE(alloc.numArenas(), 2u);

    // Arena A: several slabs of the class, half the blocks freed so A
    // keeps availability no matter how the tcache splits them.
    ThreadCtx *ctx1 = alloc.attachThread();
    ASSERT_NE(ctx1, nullptr);
    std::vector<uint64_t> offs;
    for (unsigned i = 0; i < 3000; ++i) {
        uint64_t off = alloc.allocOffset(*ctx1, 96, nullptr);
        ASSERT_NE(off, 0u);
        offs.push_back(off);
    }
    for (size_t i = 0; i < offs.size(); i += 2) {
        ASSERT_EQ(alloc.freeOffset(*ctx1, offs[i], nullptr),
                  NvStatus::Ok);
        offs[i] = 0;
    }

    // Exhaust the extent space down to slab granularity (64 KiB) so
    // no arena can carve a fresh slab.
    std::vector<uint64_t> hogs;
    for (size_t hog = 1u << 20; hog >= kSlabSize; hog /= 4) {
        for (;;) {
            uint64_t off = alloc.allocOffset(*ctx1, hog, nullptr);
            if (off == 0)
                break;
            hogs.push_back(off);
        }
    }

    // Churn a little so A's locked refill runs again and reprovisions
    // its region slots (the exhaustion reclaim dropped them).
    std::vector<uint64_t> churn;
    for (unsigned i = 0; i < 32; ++i) {
        uint64_t off = alloc.allocOffset(*ctx1, 96, nullptr);
        ASSERT_NE(off, 0u) << "arena A lost its availability";
        churn.push_back(off);
    }
    for (uint64_t off : churn)
        ASSERT_EQ(alloc.freeOffset(*ctx1, off, nullptr), NvStatus::Ok);

    uint64_t steals_before =
        readCtl(alloc, "stats.fastpath.region_steals");

    std::atomic<Arena *> arena1{ctx1->arena};
    std::thread hostile([&] {
        // Attach while ctx1 still holds arena A, so least-loaded
        // placement lands this thread on arena B.
        ThreadCtx *ctx2 = alloc.attachThread();
        ASSERT_NE(ctx2, nullptr);
        ASSERT_NE(ctx2->arena, arena1.load())
            << "least-loaded placement put both threads on one arena";
        // B is empty and the heap can give it no slab: the ladder
        // must cross over to A.
        uint64_t off = alloc.allocOffset(*ctx2, 96, nullptr);
        EXPECT_NE(off, 0u) << "sibling search failed under exhaustion";
        if (off != 0) {
            EXPECT_EQ(alloc.freeOffset(*ctx2, off, nullptr),
                      NvStatus::Ok);
        }
        alloc.detachThread(ctx2);
    });
    hostile.join();

    EXPECT_GT(readCtl(alloc, "stats.fastpath.region_steals"),
              steals_before)
        << "peer arena was never raided";

    for (uint64_t off : offs) {
        if (off)
            alloc.freeOffset(*ctx1, off, nullptr);
    }
    for (uint64_t off : hogs)
        alloc.freeOffset(*ctx1, off, nullptr);
    alloc.detachThread(ctx1);

    AuditReport rep = HeapAuditor(alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

// ---------------------------------------------------------------------
// Crash points inside the reservation refill. The workload allocates
// in bursts larger than the reservation batch, so flush crash points
// land inside claimFast cascades, region installs, and slab-header
// initialisation. Recovery must satisfy the same three safety
// properties as the main crash matrix.
// ---------------------------------------------------------------------
constexpr unsigned kSweepSlots = 48;

class FastPathCrashSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FastPathCrashSweep, SafeInsideReservationRefill)
{
    unsigned nth = 1 + 9 * GetParam();
    SCOPED_TRACE(::testing::Message() << "flush=" << nth);

    NvAllocConfig cfg = envConfig();

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 29;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    uint64_t table_off;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, cfg);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        alloc.mallocTo(*ctx, kSweepSlots * 8, alloc.rootWord(0));
        table_off = *alloc.rootWord(0);
        std::memset(alloc.at(table_off), 0, kSweepSlots * 8);
        dev.persistFence(alloc.at(table_off), kSweepSlots * 8,
                         TimeKind::FlushData);

        dev.armCrashAtFlush(nth);

        // Burst pattern: fill every slot (> the reservation batch, so the
        // tcache refills mid-burst), then clear every slot (draining
        // into pending stacks), repeat.
        auto *slots = static_cast<uint64_t *>(alloc.at(table_off));
        Rng rng(4242);
        for (unsigned round = 0;
             round < 64 && !dev.crashTriggered(); ++round) {
            for (unsigned s = 0;
                 s < kSweepSlots && !dev.crashTriggered(); ++s) {
                if (slots[s] == 0) {
                    size_t size = 32 + rng.nextBounded(96);
                    void *p = alloc.mallocTo(*ctx, size, &slots[s]);
                    if (!p)
                        break;
                    std::memset(p, int(0x40 + s), 24);
                    dev.persistFence(p, 24, TimeKind::FlushData);
                }
            }
            for (unsigned s = 0;
                 s < kSweepSlots && !dev.crashTriggered(); ++s) {
                if (slots[s] != 0)
                    alloc.freeFrom(*ctx, &slots[s]);
            }
        }
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().performed);

    auto *slots = static_cast<uint64_t *>(again.at(table_off));
    unsigned published = 0;
    for (unsigned s = 0; s < kSweepSlots; ++s) {
        if (slots[s] == 0)
            continue;
        ++published;
        ASSERT_TRUE(blockIsLive(again, slots[s]))
            << "slot " << s << " lost at flush " << nth;
        auto *bytes = static_cast<uint8_t *>(again.at(slots[s]));
        for (int b = 0; b < 24; ++b)
            ASSERT_EQ(bytes[b], 0x40 + s) << "torn data, slot " << s;
    }
    EXPECT_EQ(liveSmallBlocks(again), published + 1)
        << "leak or loss at flush " << nth;

    AuditReport rep = HeapAuditor(again).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();

    ThreadCtx *ctx = again.attachThread();
    ASSERT_NE(ctx, nullptr);
    for (unsigned s = 0; s < kSweepSlots; ++s) {
        if (slots[s])
            again.freeFrom(*ctx, &slots[s]);
    }
    uint64_t probe = again.allocOffset(*ctx, 128, nullptr);
    EXPECT_NE(probe, 0u);
    again.freeOffset(*ctx, probe, nullptr);
    again.detachThread(ctx);
}

// 25 flush points with stride 9 span slab creation, the first claim
// cascades, and steady-state refills.
INSTANTIATE_TEST_SUITE_P(RefillPoints, FastPathCrashSweep,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------
// 128-thread Larson-small churn under virtual time: every WAL slot in
// play, slabs shared across the whole thread population, and the heap
// still audits clean when the dust settles.
// ---------------------------------------------------------------------
TEST(FastPath, Larson128ThreadChurnAuditsClean)
{
    NvAllocConfig cfg = envConfig();
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 29;
    PmDevice dev(dcfg);
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;

    constexpr unsigned kThreads = 128;
    constexpr unsigned kOps = 800;
    constexpr unsigned kHeld = 8;
    static const size_t kSizes[] = {16, 32, 64, 96, 128};
    std::atomic<unsigned> attached{0};
    std::atomic<unsigned> op_failures{0};
    std::atomic<uint64_t> ops_done{0};
    std::atomic<uint64_t> allocs_done{0}, frees_done{0};

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            ThreadCtx *ctx = alloc.attachThread();
            if (!ctx)
                return; // the maintenance thread may hold a slot
            attached.fetch_add(1);
            Rng rng(77 + t);
            uint64_t held[kHeld] = {};
            for (unsigned op = 0; op < kOps; ++op) {
                unsigned h = unsigned(rng.nextBounded(kHeld));
                if (held[h]) {
                    if (alloc.freeOffset(*ctx, held[h], nullptr) !=
                        NvStatus::Ok)
                        op_failures.fetch_add(1);
                    else
                        frees_done.fetch_add(1);
                    held[h] = 0;
                } else {
                    held[h] = alloc.allocOffset(
                        *ctx, kSizes[rng.nextBounded(5)], nullptr);
                    if (!held[h])
                        op_failures.fetch_add(1);
                    else
                        allocs_done.fetch_add(1);
                }
                ops_done.fetch_add(1);
            }
            for (unsigned h = 0; h < kHeld; ++h) {
                if (held[h] && alloc.freeOffset(*ctx, held[h], nullptr) ==
                                   NvStatus::Ok)
                    frees_done.fetch_add(1);
            }
            alloc.detachThread(ctx);
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_GE(attached.load(), kThreads - 1); // one slot for maint
    EXPECT_EQ(op_failures.load(), 0u);
    EXPECT_GE(ops_done.load(), uint64_t(attached.load()) * kOps);

    // Counted exactly once per completed operation, in the workers'
    // own shards: no increment is lost to the 128-way concurrency.
    EXPECT_EQ(readCtl(alloc, "stats.alloc.small"), allocs_done.load());
    EXPECT_EQ(readCtl(alloc, "stats.free.small"), frees_done.load());
    EXPECT_EQ(readCtl(alloc, "stats.hardening.validated_frees"),
              readCtl(alloc, "stats.free.small") +
                  readCtl(alloc, "stats.free.large") -
                  readCtl(alloc, "stats.hardening.guard_frees"));

    AuditReport rep = HeapAuditor(alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
    EXPECT_EQ(liveSmallBlocks(alloc), 0u) << "blocks leaked by churn";
}

} // namespace
} // namespace nvalloc
