/**
 * @file
 * Unit tests of the baseline substrate internals: ExtentHeap
 * (best-fit, split, coalesce, descriptor accounting) and SlabEngine
 * policy semantics (bitmap vs embedded free lists, static
 * segregation, journaling disciplines, per-thread heaps).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/extent_heap.h"
#include "common/rng.h"
#include "baselines/slab_engine.h"

namespace nvalloc {
namespace {

class ExtentHeapFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 28;
        dev_ = std::make_unique<PmDevice>(cfg);
        heap_ = std::make_unique<ExtentHeap>(dev_.get());
        VClock::reset();
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<ExtentHeap> heap_;
};

TEST_F(ExtentHeapFixture, AllocFreeRoundtrip)
{
    uint64_t a = heap_->allocExtent(100 * 1024);
    ASSERT_NE(a, 0u);
    EXPECT_TRUE(heap_->isAllocated(a));
    EXPECT_EQ(heap_->allocatedBytes(), 112u * 1024u); // 16 KB grain
    heap_->freeExtent(a);
    EXPECT_FALSE(heap_->isAllocated(a));
    EXPECT_EQ(heap_->allocatedBytes(), 0u);
}

TEST_F(ExtentHeapFixture, FreedSpaceIsReusedAndCoalesced)
{
    uint64_t a = heap_->allocExtent(64 * 1024);
    uint64_t b = heap_->allocExtent(64 * 1024);
    uint64_t c = heap_->allocExtent(64 * 1024);
    ASSERT_EQ(c, b + 64 * 1024);
    size_t committed = dev_->committedBytes();

    heap_->freeExtent(a);
    heap_->freeExtent(b);
    // The coalesced 128 KB hole serves a 128 KB request at `a`.
    uint64_t d = heap_->allocExtent(128 * 1024);
    EXPECT_EQ(d, a);
    EXPECT_EQ(dev_->committedBytes(), committed) << "no new region";
    heap_->freeExtent(c);
    heap_->freeExtent(d);
}

TEST_F(ExtentHeapFixture, DistinctExtentsNeverOverlap)
{
    std::set<std::pair<uint64_t, uint64_t>> live;
    Rng rng(3);
    std::vector<uint64_t> offs;
    for (int i = 0; i < 500; ++i) {
        if (offs.empty() || rng.nextDouble() < 0.6) {
            uint64_t size = (1 + rng.nextBounded(10)) * 16 * 1024;
            uint64_t off = heap_->allocExtent(size);
            for (auto [lo, hi] : live)
                ASSERT_TRUE(off + size <= lo || off >= hi);
            live.emplace(off, off + size);
            offs.push_back(off);
        } else {
            size_t pick = rng.nextBounded(offs.size());
            uint64_t off = offs[pick];
            for (auto it = live.begin(); it != live.end(); ++it) {
                if (it->first == off) {
                    live.erase(it);
                    break;
                }
            }
            heap_->freeExtent(off);
            offs[pick] = offs.back();
            offs.pop_back();
        }
    }
}

TEST_F(ExtentHeapFixture, InPlaceUpdatesAreRandomFlushes)
{
    // Warm up several regions so descriptors scatter.
    std::vector<uint64_t> offs;
    for (int i = 0; i < 40; ++i)
        offs.push_back(heap_->allocExtent(256 * 1024));
    dev_->model().reset();
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
        size_t pick = rng.nextBounded(offs.size());
        heap_->freeExtent(offs[pick]);
        offs[pick] = heap_->allocExtent(
            (1 + rng.nextBounded(12)) * 16 * 1024);
    }
    auto c = dev_->flushCounts();
    // The §3.3 behaviour: a substantial share of random media writes.
    EXPECT_GT(c.random, c.sequential);
}

// ---- SlabEngine policies ------------------------------------------------

struct EngineRig
{
    std::unique_ptr<PmDevice> dev;
    std::unique_ptr<ExtentHeap> extents;
    std::unique_ptr<SlabEngine> engine;
    SlabEngine::Tls *tls = nullptr;

    explicit EngineRig(SlabEngine::Policy policy)
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 28;
        dev = std::make_unique<PmDevice>(cfg);
        extents = std::make_unique<ExtentHeap>(dev.get());
        engine = std::make_unique<SlabEngine>(dev.get(), extents.get(),
                                              policy);
        tls = engine->attach();
    }

    ~EngineRig() { engine->detach(tls); }
};

TEST(SlabEngine, BitmapModeReusesFreedBlocks)
{
    SlabEngine::Policy p;
    p.freelist = SlabEngine::FreeList::Bitmap;
    EngineRig rig(p);

    uint64_t a = rig.engine->alloc(rig.tls, 64);
    ASSERT_NE(a, 0u);
    ASSERT_TRUE(rig.engine->free(rig.tls, a));
    uint64_t b = rig.engine->alloc(rig.tls, 64);
    EXPECT_EQ(b, a) << "first-zero bit scan reuses the slot";
    // Offsets outside any slab are reported unknown (large path).
    EXPECT_FALSE(rig.engine->free(rig.tls, rig.dev->size() - 4096));
    rig.engine->free(rig.tls, b);
}

TEST(SlabEngine, EmbeddedModeIsLifoAndChargesReads)
{
    SlabEngine::Policy p;
    p.freelist = SlabEngine::FreeList::Embedded;
    p.link_read_charge = true;
    EngineRig rig(p);

    uint64_t a = rig.engine->alloc(rig.tls, 64);
    uint64_t b = rig.engine->alloc(rig.tls, 64);
    rig.engine->free(rig.tls, a);
    rig.engine->free(rig.tls, b);

    VClock::reset();
    uint64_t c = rig.engine->alloc(rig.tls, 64);
    EXPECT_EQ(c, b) << "embedded list is LIFO";
    EXPECT_GT(VClock::kindTotal(TimeKind::PmRead), 0u)
        << "pointer chase charged as a PM read";
    rig.engine->free(rig.tls, c);
}

TEST(SlabEngine, StaticSegregationNeverReturnsSlabs)
{
    SlabEngine::Policy p;
    EngineRig rig(p);

    // Fill and completely empty a class: the slabs must stay.
    std::vector<uint64_t> offs;
    for (int i = 0; i < 3000; ++i)
        offs.push_back(rig.engine->alloc(rig.tls, 64));
    uint64_t slabs_at_peak = rig.engine->slabCount();
    for (uint64_t off : offs)
        rig.engine->free(rig.tls, off);
    EXPECT_EQ(rig.engine->slabCount(), slabs_at_peak)
        << "empty slabs stay pinned to their class (paper §3.2)";
    EXPECT_EQ(rig.engine->liveBlocks(), 0u);

    // A different class cannot reuse them: new slabs are created.
    uint64_t big = rig.engine->alloc(rig.tls, 1024);
    EXPECT_GT(rig.engine->slabCount(), slabs_at_peak);
    rig.engine->free(rig.tls, big);
}

TEST(SlabEngine, LaneHeadJournalingReflushes)
{
    SlabEngine::Policy p;
    p.log_head_flush = true;
    p.log_entry_flushes = 1;
    EngineRig rig(p);
    // Warm up.
    for (int i = 0; i < 8; ++i)
        rig.engine->alloc(rig.tls, 64);
    rig.dev->model().reset();
    for (int i = 0; i < 50; ++i)
        rig.engine->alloc(rig.tls, 64);
    auto c = rig.dev->flushCounts();
    // Lane-head rewrites alone are 50 reflushes at distance ~2.
    EXPECT_GT(double(c.reflush) / double(c.total), 0.8);
}

TEST(SlabEngine, PerThreadHeapsIsolateAllocations)
{
    SlabEngine::Policy p;
    p.locking = SlabEngine::Locking::PerThread;
    EngineRig rig(p);

    SlabEngine::Tls *other = rig.engine->attach();
    uint64_t mine = rig.engine->alloc(rig.tls, 64);
    uint64_t theirs = rig.engine->alloc(other, 64);
    // Distinct heaps means distinct slabs.
    EXPECT_NE(mine & ~uint64_t{kSlabSize - 1},
              theirs & ~uint64_t{kSlabSize - 1});
    // Cross-thread free routes to the owner heap and works.
    EXPECT_TRUE(rig.engine->free(rig.tls, theirs));
    EXPECT_TRUE(rig.engine->free(other, mine));
    rig.engine->detach(other);
}

} // namespace
} // namespace nvalloc
