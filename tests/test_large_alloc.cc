/**
 * @file
 * Large allocator tests (§4.3): best-fit with split and coalesce,
 * direct >2 MB regions, the decay pipeline
 * (reclaimed → retained → OS), persistent region-table maintenance,
 * gap-based free-space recovery, and the in-place descriptor mode.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "nvalloc/large_alloc.h"

namespace nvalloc {
namespace {

class LargeFixture : public ::testing::Test
{
  protected:
    void
    init(bool log_mode)
    {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 28;
        dev_ = std::make_unique<PmDevice>(dcfg);
        table_ = regionTable(*dev_);

        if (log_mode) {
            log_ = std::make_unique<BookkeepingLog>();
            log_region_ = dev_->mapRegion(256 * 1024);
            log_->attach(dev_.get(), log_region_, 256 * 1024, true, 0.5,
                         true);
        }
        large_ = std::make_unique<LargeAllocator>();
        large_->init(dev_.get(), cfg_, log_.get());
        large_->setTelemetry(&tel_);
        VClock::reset();
    }

    Telemetry tel_; //!< where large_ counts extent-lifecycle events
    NvAllocConfig cfg_;
    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<BookkeepingLog> log_;
    std::unique_ptr<LargeAllocator> large_;
    uint64_t log_region_ = 0;
    uint64_t *table_ = nullptr; //!< the device's region table
};

TEST_F(LargeFixture, AllocateFindFree)
{
    init(true);
    uint64_t a = large_->allocate(100 * 1024, false);
    ASSERT_NE(a, 0u);
    Veh *veh = large_->findVeh(a);
    ASSERT_NE(veh, nullptr);
    EXPECT_EQ(veh->off, a);
    EXPECT_EQ(veh->size, 112u * 1024u) << "rounded to 16 KB grain";
    EXPECT_EQ(veh->state, Veh::State::Activated);

    large_->free(a);
    veh = large_->findVeh(a);
    ASSERT_NE(veh, nullptr);
    EXPECT_EQ(veh->state, Veh::State::Reclaimed);
}

TEST_F(LargeFixture, BestFitPrefersTightestExtent)
{
    init(true);
    // Create free extents of 64 KB and 128 KB by alloc+free with
    // separators pinned so they cannot coalesce.
    uint64_t small_e = large_->allocate(64 * 1024, false);
    uint64_t pin1 = large_->allocate(16 * 1024, false);
    uint64_t big_e = large_->allocate(128 * 1024, false);
    uint64_t pin2 = large_->allocate(16 * 1024, false);
    (void)pin1;
    (void)pin2;
    large_->free(small_e);
    large_->free(big_e);

    uint64_t got = large_->allocate(64 * 1024, false);
    EXPECT_EQ(got, small_e) << "best fit picks the 64 KB hole";
}

TEST_F(LargeFixture, SplitLeavesRemainderFree)
{
    init(true);
    uint64_t a = large_->allocate(256 * 1024, false);
    large_->free(a);
    uint64_t b = large_->allocate(64 * 1024, false);
    EXPECT_EQ(b, a) << "front split of the freed extent";
    Veh *rest = large_->findVeh(a + 64 * 1024);
    ASSERT_NE(rest, nullptr);
    EXPECT_EQ(rest->state, Veh::State::Reclaimed);
    // The remainder coalesced with the rest of the region, so it is
    // at least the 192 KB left from the original 256 KB extent.
    EXPECT_GE(rest->size, 192u * 1024u);
}

TEST_F(LargeFixture, SplitRemainderResolvesToItsVeh)
{
    init(true);
    // The first allocation splits a fresh region's only extent, the
    // second splits that remainder again.
    for (uint64_t size : {64 * 1024, 32 * 1024}) {
        uint64_t a = large_->allocate(size, false);
        ASSERT_NE(a, 0u);
        Veh *front = large_->findVeh(a);
        ASSERT_NE(front, nullptr);
        EXPECT_EQ(large_->findVeh(a + size - 1), front);
        Veh *rest = large_->findVeh(a + size);
        ASSERT_NE(rest, nullptr);
        EXPECT_NE(rest, front);
        EXPECT_EQ(rest->off, a + size);
        EXPECT_EQ(rest->state, Veh::State::Reclaimed);
        EXPECT_EQ(large_->findVeh(rest->off + rest->size - 1), rest)
            << "last page of the remainder";
    }
}

TEST_F(LargeFixture, CoalesceMergesNeighbors)
{
    init(true);
    uint64_t a = large_->allocate(64 * 1024, false);
    uint64_t b = large_->allocate(64 * 1024, false);
    uint64_t c = large_->allocate(64 * 1024, false);
    ASSERT_EQ(b, a + 64 * 1024);
    ASSERT_EQ(c, b + 64 * 1024);

    large_->free(a);
    large_->free(c);
    large_->free(b); // merges with both neighbours
    Veh *merged = large_->findVeh(a);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->off, a);
    EXPECT_GE(merged->size, 3u * 64u * 1024u);
    EXPECT_EQ(large_->findVeh(b), merged);
    EXPECT_EQ(large_->findVeh(c), merged);
    EXPECT_GE(tel_.total(StatCounter::LargeCoalesces), 2u);
}

TEST_F(LargeFixture, DirectRegionForHugeAllocations)
{
    init(true);
    size_t committed = dev_->committedBytes();
    uint64_t a = large_->allocate(3 * 1024 * 1024, false);
    Veh *veh = large_->findVeh(a);
    ASSERT_NE(veh, nullptr);
    EXPECT_TRUE(veh->is_direct);
    EXPECT_GT(dev_->committedBytes(), committed + 3 * 1024 * 1024 - 1);

    large_->free(a);
    EXPECT_EQ(large_->findVeh(a), nullptr) << "unmapped entirely";
    EXPECT_EQ(dev_->committedBytes(), committed);
}

TEST_F(LargeFixture, DecayDemotesAndEvicts)
{
    init(true);
    uint64_t a = large_->allocate(64 * 1024, false);
    large_->free(a);
    ASSERT_GT(large_->reclaimedBytes(), 0u);

    // Let virtual time pass two windows (100 ms), then tick.
    const uint64_t kWindow = LargeAllocator::kDecayWindowNs;
    VClock::advance(2 * kWindow, TimeKind::Other);
    large_->decayTick();
    EXPECT_EQ(large_->reclaimedBytes(), 0u) << "demoted";

    VClock::advance(2 * kWindow, TimeKind::Other);
    large_->decayTick();
    // The whole region became one retained extent and went to the OS.
    EXPECT_EQ(large_->retainedBytes(), 0u) << "evicted";
    EXPECT_GE(tel_.total(StatCounter::LargeEvictions), 1u);
}

TEST_F(LargeFixture, EvictionKeepsPeakCommittedBytes)
{
    init(false);
    uint64_t a = large_->allocate(2 << 20, false);
    ASSERT_NE(a, 0u);
    large_->free(a); // its 4 MiB region is whole again
    const uint64_t kWindow = LargeAllocator::kDecayWindowNs;
    VClock::advance(3 * kWindow / 2, TimeKind::Other);
    large_->decayTick();
    ASSERT_GT(large_->retainedBytes(), 0u) << "demoted";

    ASSERT_NE(large_->allocate(5 << 20, false), 0u); // a direct region
    size_t peak = dev_->peakCommittedBytes();
    VClock::advance(2 * kWindow, TimeKind::Other);
    large_->decayTick();
    ASSERT_EQ(tel_.total(StatCounter::LargeEvictions), 1u);
    // The demoted data area holds no pages: releasing the region must
    // not count them as committed on the way out.
    EXPECT_EQ(dev_->peakCommittedBytes(), peak);
}

TEST_F(LargeFixture, RetainedExtentIsRecommittedOnReuse)
{
    init(true);
    uint64_t a = large_->allocate(64 * 1024, false);
    uint64_t b = large_->allocate(64 * 1024, false);
    (void)b; // keeps the region alive (no whole-region eviction)
    large_->free(a);
    VClock::advance(3 * LargeAllocator::kDecayWindowNs / 2,
                    TimeKind::Other);
    large_->decayTick();
    ASSERT_GT(large_->retainedBytes(), 0u);
    size_t committed = dev_->committedBytes();

    uint64_t c = large_->allocate(64 * 1024, false);
    EXPECT_EQ(c, a) << "retained extent reused";
    EXPECT_GT(dev_->committedBytes(), committed);
}

TEST_F(LargeFixture, RegionTablePersistsLiveRegions)
{
    init(true);
    large_->allocate(64 * 1024, false);
    unsigned populated = 0;
    for (unsigned i = 0; i < kRegionTableSlots; ++i)
        populated += table_[i] != 0;
    EXPECT_EQ(populated, 1u);

    large_->allocate(5 * 1024 * 1024, false); // direct region
    populated = 0;
    for (unsigned i = 0; i < kRegionTableSlots; ++i)
        populated += table_[i] != 0;
    EXPECT_EQ(populated, 2u);
}

TEST_F(LargeFixture, GapRecoveryRebuildsFreeSpace)
{
    init(true);
    uint64_t a = large_->allocate(64 * 1024, false);
    uint64_t b = large_->allocate(128 * 1024, false);
    uint64_t c = large_->allocate(64 * 1024, false);
    large_->free(b); // a .. [gap] .. c

    // "Restart": a fresh allocator adopts the log + region table.
    BookkeepingLog log2;
    log2.attach(dev_.get(), log_region_, 256 * 1024, true, 0.5, false);
    LargeAllocator fresh;
    fresh.init(dev_.get(), cfg_, &log2);
    log2.replay([&](LogType type, uint64_t off, uint64_t size,
                    LogEntryRef ref) {
        fresh.adoptActivated(off, size, type == kLogSlab, ref);
    });
    ASSERT_TRUE(fresh.rebuildFreeSpace());

    EXPECT_NE(fresh.findVeh(a), nullptr);
    EXPECT_EQ(fresh.findVeh(a)->state, Veh::State::Activated);
    EXPECT_EQ(fresh.findVeh(c)->state, Veh::State::Activated);
    Veh *gap = fresh.findVeh(b);
    ASSERT_NE(gap, nullptr);
    EXPECT_EQ(gap->state, Veh::State::Reclaimed);

    // The recovered heap allocates out of the gap.
    uint64_t d = fresh.allocate(128 * 1024, false);
    EXPECT_EQ(d, b);
}

TEST_F(LargeFixture, InPlaceDescriptorModeRecovers)
{
    init(false); // no log: Base configuration
    uint64_t a = large_->allocate(96 * 1024, false);
    uint64_t slab = large_->allocate(kSlabSize, true);
    uint64_t b = large_->allocate(64 * 1024, false);
    large_->free(b);

    LargeAllocator fresh;
    fresh.init(dev_.get(), cfg_, nullptr);
    unsigned slabs_seen = 0;
    EXPECT_TRUE(fresh.recoverFromDescriptors([&](uint64_t off, uint64_t size) {
        EXPECT_EQ(off, slab);
        EXPECT_EQ(size, kSlabSize);
        ++slabs_seen;
    }));
    EXPECT_EQ(slabs_seen, 1u);
    EXPECT_EQ(fresh.findVeh(a)->state, Veh::State::Activated);
    EXPECT_EQ(fresh.findVeh(b)->state, Veh::State::Reclaimed);
}

TEST_F(LargeFixture, StressSplitCoalesceKeepsAccounting)
{
    init(true);
    Rng rng(23);
    std::vector<uint64_t> live;
    uint64_t live_bytes = 0;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.nextDouble() < 0.55) {
            uint64_t size = (1 + rng.nextBounded(12)) * 16 * 1024;
            uint64_t off = large_->allocate(size, false);
            ASSERT_NE(off, 0u);
            live.push_back(off);
            live_bytes += large_->findVeh(off)->size;
        } else {
            size_t pick = rng.nextBounded(live.size());
            live_bytes -= large_->findVeh(live[pick])->size;
            large_->free(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(large_->activatedBytes(), live_bytes);
    }
    for (uint64_t off : live)
        large_->free(off);
    EXPECT_EQ(large_->activatedBytes(), 0u);
}

} // namespace
} // namespace nvalloc
