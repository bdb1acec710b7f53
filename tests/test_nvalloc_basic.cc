/**
 * @file
 * Smoke tests of the NvAlloc facade: allocate/free round trips, tcache
 * behaviour, small/large routing, and attach-word publishing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "common/rng.h"
#include "nvalloc/nvalloc.h"

namespace nvalloc {
namespace {

class NvAllocBasic : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 30;
        dev_ = std::make_unique<PmDevice>(dcfg);
        alloc_ = NvAlloc::openOrDie(*dev_);
        ctx_ = alloc_->attachThread();
    }

    void
    TearDown() override
    {
        if (ctx_)
            alloc_->detachThread(ctx_);
        alloc_.reset();
        dev_.reset();
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<NvAlloc> alloc_;
    ThreadCtx *ctx_ = nullptr;
};

TEST_F(NvAllocBasic, SmallAllocPublishesOffset)
{
    uint64_t *root = alloc_->rootWord(0);
    void *p = alloc_->mallocTo(*ctx_, 64, root);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(alloc_->at(*root), p);
    EXPECT_NE(*root, 0u);

    alloc_->freeFrom(*ctx_, root);
    EXPECT_EQ(*root, 0u);
}

TEST_F(NvAllocBasic, DistinctAddressesAndWritable)
{
    uint64_t *root = alloc_->rootWord(0);
    std::set<void *> seen;
    std::vector<uint64_t> offs;
    for (int i = 0; i < 500; ++i) {
        void *p = alloc_->mallocTo(*ctx_, 128, root);
        ASSERT_TRUE(seen.insert(p).second) << "duplicate address";
        memset(p, 0xab, 128);
        offs.push_back(*root);
    }
    for (uint64_t off : offs)
        alloc_->freeOffset(*ctx_, off, nullptr);
}

TEST_F(NvAllocBasic, FreeRefillsTcacheAndReusesBlocks)
{
    // With the interleaved layout, pops rotate across sub-tcaches, so
    // exact LIFO order is not guaranteed — but a free/alloc cycle must
    // stay within the same slab (the block returns to the tcache and
    // the tcache serves the next request).
    uint64_t off1 = alloc_->allocOffset(*ctx_, 64, nullptr);
    VSlab *slab1 = static_cast<VSlab *>(alloc_->slabRadix().get(off1));
    alloc_->freeOffset(*ctx_, off1, nullptr);
    uint64_t off2 = alloc_->allocOffset(*ctx_, 64, nullptr);
    VSlab *slab2 = static_cast<VSlab *>(alloc_->slabRadix().get(off2));
    EXPECT_EQ(slab1, slab2);
    EXPECT_EQ(alloc_->arena(ctx_->arena->id()).stats().refills.load(), 1u);
    alloc_->freeOffset(*ctx_, off2, nullptr);

    // With interleaving off, the cache is strictly LIFO. Morphing is
    // disabled too: its tcache-bypass for low-occupancy slabs would
    // route this nearly-empty slab's free around the cache.
    NvAllocConfig cfg;
    cfg.interleaved_tcache = false;
    cfg.slab_morphing = false;
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 29;
    PmDevice dev2(dcfg);
    auto lifo_h = NvAlloc::openOrDie(dev2, cfg);
    NvAlloc &lifo = *lifo_h;
    ThreadCtx *ctx = lifo.attachThread();
    uint64_t a = lifo.allocOffset(*ctx, 64, nullptr);
    lifo.freeOffset(*ctx, a, nullptr);
    uint64_t b = lifo.allocOffset(*ctx, 64, nullptr);
    EXPECT_EQ(a, b);
    lifo.freeOffset(*ctx, b, nullptr);
    lifo.detachThread(ctx);
}

TEST_F(NvAllocBasic, LargeAllocationRoutesToExtents)
{
    uint64_t *root = alloc_->rootWord(1);
    void *p = alloc_->mallocTo(*ctx_, 128 * 1024, root);
    ASSERT_NE(p, nullptr);
    memset(p, 0x5a, 128 * 1024);
    EXPECT_EQ(alloc_->slabRadix().get(*root), nullptr);
    Veh *veh = alloc_->large().findVeh(*root);
    ASSERT_NE(veh, nullptr);
    EXPECT_EQ(veh->state, Veh::State::Activated);
    EXPECT_GE(veh->size, 128u * 1024u);
    alloc_->freeFrom(*ctx_, root);
}

TEST_F(NvAllocBasic, HugeAllocationGetsDirectRegion)
{
    uint64_t *root = alloc_->rootWord(2);
    void *p = alloc_->mallocTo(*ctx_, 3 * 1024 * 1024, root);
    ASSERT_NE(p, nullptr);
    Veh *veh = alloc_->large().findVeh(*root);
    ASSERT_NE(veh, nullptr);
    EXPECT_TRUE(veh->is_direct);
    alloc_->freeFrom(*ctx_, root);
    EXPECT_EQ(alloc_->large().findVeh(dev_->offsetOf(p)), nullptr);
}

TEST_F(NvAllocBasic, SizeClassBoundaries)
{
    for (size_t size : {size_t{1}, size_t{8}, size_t{9}, size_t{128},
                        size_t{129}, size_t{4096}, size_t{16384}}) {
        uint64_t off = alloc_->allocOffset(*ctx_, size, nullptr);
        ASSERT_NE(off, 0u) << size;
        VSlab *slab = static_cast<VSlab *>(alloc_->slabRadix().get(off));
        ASSERT_NE(slab, nullptr) << size;
        EXPECT_GE(slab->blockSize(), size);
        alloc_->freeOffset(*ctx_, off, nullptr);
    }
}

TEST_F(NvAllocBasic, ManyAllocFreeCyclesStayBounded)
{
    // Churn must not grow the heap: the same slabs get reused.
    std::vector<uint64_t> offs;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 200; ++i)
            offs.push_back(alloc_->allocOffset(*ctx_, 100, nullptr));
        for (uint64_t off : offs)
            alloc_->freeOffset(*ctx_, off, nullptr);
        offs.clear();
    }
    // 200 live 128 B blocks fit in one slab; allow a handful.
    EXPECT_LE(alloc_->arena(0).stats().slabs_created +
                  alloc_->arena(1).stats().slabs_created +
                  alloc_->arena(2).stats().slabs_created +
                  alloc_->arena(3).stats().slabs_created,
              8u);
}

TEST_F(NvAllocBasic, SlabWalksFollowDeviceOffsets)
{
    // Churn that releases slabs and creates new ones, so the order the
    // slab descriptors were allocated in DRAM stops matching the order
    // of their extents on the device. Every walk must still visit an
    // arena's slabs in device-offset order.
    std::vector<uint64_t> live;
    for (int round = 0; round < 6; ++round) {
        size_t size = size_t{64} << (round % 3);
        std::vector<uint64_t> offs;
        for (int i = 0; i < 3000; ++i)
            offs.push_back(alloc_->allocOffset(*ctx_, size, nullptr));
        // Keep the newest blocks live, so the older slabs empty out.
        for (size_t i = 0; i < offs.size(); ++i) {
            if (i + 100 >= offs.size())
                live.push_back(offs[i]);
            else
                alloc_->freeOffset(*ctx_, offs[i], nullptr);
        }
        // Detaching returns the lent tcache blocks; dropping the
        // region slots lets the fully free slabs go.
        alloc_->detachThread(ctx_);
        for (unsigned a = 0; a < alloc_->numArenas(); ++a)
            alloc_->arena(a).dropRegions();
        ctx_ = alloc_->attachThread();
    }
    uint64_t released = 0;
    ASSERT_EQ(alloc_->ctlRead("stats.slab.released", &released),
              NvStatus::Ok);
    EXPECT_GT(released, 0u) << "the churn released slabs";

    size_t walked = 0;
    for (unsigned a = 0; a < alloc_->numArenas(); ++a) {
        uint64_t prev = 0;
        bool first = true;
        alloc_->arena(a).forEachSlab([&](VSlab *slab) {
            if (!first) {
                EXPECT_GT(slab->slabOffset(), prev) << "arena " << a;
            }
            prev = slab->slabOffset();
            first = false;
            ++walked;
        });
    }
    EXPECT_GE(walked, 6u);
    for (uint64_t off : live)
        EXPECT_EQ(alloc_->freeOffset(*ctx_, off, nullptr), NvStatus::Ok);
}

TEST_F(NvAllocBasic, MultiThreadedChurn)
{
    constexpr int kThreads = 4;
    constexpr int kOps = 3000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ThreadCtx *ctx = alloc_->attachThread();
            Rng rng(t + 1);
            std::vector<uint64_t> live;
            for (int i = 0; i < kOps; ++i) {
                if (live.empty() || rng.nextDouble() < 0.6) {
                    size_t size = 16 + rng.nextBounded(500);
                    live.push_back(
                        alloc_->allocOffset(*ctx, size, nullptr));
                } else {
                    size_t pick = rng.nextBounded(live.size());
                    alloc_->freeOffset(*ctx, live[pick], nullptr);
                    live[pick] = live.back();
                    live.pop_back();
                }
            }
            for (uint64_t off : live)
                alloc_->freeOffset(*ctx, off, nullptr);
            alloc_->detachThread(ctx);
        });
    }
    for (auto &th : threads)
        th.join();
}

} // namespace
} // namespace nvalloc
