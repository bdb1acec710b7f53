/**
 * @file
 * Tests of the flush latency model against the behaviours §3.1
 * documents: the reflush-distance cost curve (800→500 ns over
 * distances 0-3), sequential-vs-random media costs, XPBuffer hits and
 * its LRU order, classification counters (per thread, summed across
 * exited threads), and the trace hook.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "pm/pm_device.h"

namespace nvalloc {
namespace {

class LatencyModelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 28;
        dev_ = std::make_unique<PmDevice>(cfg);
        VClock::reset();
    }

    uint64_t
    flushCost(uint64_t offset)
    {
        uint64_t v0 = VClock::now();
        dev_->flushLine(dev_->base() + offset, TimeKind::FlushMeta);
        return VClock::now() - v0;
    }

    std::unique_ptr<PmDevice> dev_;
};

TEST_F(LatencyModelTest, ReflushDistanceCurveMatchesPaper)
{
    const LatencyParams &p = dev_->model().params();

    // Cycle over K distinct lines; steady-state distance is K-1.
    for (unsigned k = 1; k <= 4; ++k) {
        dev_->model().reset();
        // Warm up the cycle.
        for (unsigned i = 0; i < 2 * k; ++i)
            flushCost((i % k) * 64);
        uint64_t cost = flushCost(((2 * k) % k) * 64) - p.issue;
        EXPECT_EQ(cost, p.reflush_base - p.reflush_step * (k - 1))
            << "distance " << k - 1;
    }
    // Paper numbers: 800 ns at distance 0 down to 500 at distance 3.
    EXPECT_EQ(p.reflush_base, 800u);
    EXPECT_EQ(p.reflush_base - 3 * p.reflush_step, 500u);
}

TEST_F(LatencyModelTest, BeyondWindowIsRegularFlush)
{
    const LatencyParams &p = dev_->model().params();
    // Cycle of 6 distinct lines: distance 5 >= window, no reflush.
    for (unsigned i = 0; i < 18; ++i)
        flushCost((i % 6) * 64);
    auto c = dev_->flushCounts();
    // After the first pass every flush is distance 5: all hits or
    // media, no reflushes beyond warmup.
    EXPECT_LE(c.reflush, 0u + p.reflush_window);
    EXPECT_GT(c.xpline_hit, 8u);
}

TEST_F(LatencyModelTest, SequentialCheaperThanRandom)
{
    const LatencyParams &p = dev_->model().params();
    // Sequential XPLine misses: one line per consecutive XPLine.
    dev_->model().reset();
    uint64_t seq = 0;
    for (unsigned i = 0; i < 200; ++i)
        seq += flushCost(uint64_t(i) * 256);
    // Random far-apart lines.
    dev_->model().reset();
    VClock::reset();
    uint64_t rnd = 0;
    uint64_t x = 99;
    for (unsigned i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        rnd += flushCost((x % (1 << 20)) * 64);
    }
    EXPECT_LT(p.media_seq, p.media_random);
    EXPECT_LT(seq, rnd);
}

TEST_F(LatencyModelTest, XpBufferHitsAreCheap)
{
    const LatencyParams &p = dev_->model().params();
    // 5 lines in one XPLine region cycled: beyond the reflush window
    // but inside the XPBuffer.
    for (unsigned i = 0; i < 40; ++i)
        flushCost((i % 5) * 64);
    uint64_t cost = flushCost((40 % 5) * 64);
    EXPECT_EQ(cost, p.issue + p.xpline_hit);
}

TEST_F(LatencyModelTest, XpBufferKeepsExactLruOrder)
{
    // A seeded stream over 100 XPLines (more than the 64 the buffer
    // holds), classified again by the plain rules: a line among the
    // last reflush_window distinct lines is a reflush and leaves the
    // buffer alone; otherwise its XPLine hits if it is among the 64
    // most recently used, and becomes the most recently used.
    const LatencyParams &p = dev_->model().params();
    constexpr size_t kMru = 8, kXpBuf = 64;
    std::vector<uint64_t> mru; // most recent first
    std::vector<uint64_t> lru; // least recent first
    uint64_t reflush = 0, hit = 0, miss = 0;
    uint64_t x = 7;
    for (unsigned i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t xpline = ((x >> 33) % 100) * 4096;
        uint64_t line = xpline + ((x >> 20) % 4) * 64;
        flushCost(line);
        auto m = std::find(mru.begin(), mru.end(), line);
        size_t distance = kMru;
        if (m != mru.end()) {
            distance = size_t(m - mru.begin());
            mru.erase(m);
        }
        mru.insert(mru.begin(), line);
        if (mru.size() > kMru)
            mru.pop_back();
        if (distance < p.reflush_window) {
            ++reflush;
            continue;
        }
        auto l = std::find(lru.begin(), lru.end(), xpline);
        if (l != lru.end()) {
            ++hit;
            lru.erase(l);
        } else {
            ++miss;
        }
        lru.push_back(xpline);
        if (lru.size() > kXpBuf)
            lru.erase(lru.begin());
    }
    auto c = dev_->flushCounts();
    EXPECT_EQ(c.reflush, reflush);
    EXPECT_EQ(c.xpline_hit, hit);
    EXPECT_EQ(c.sequential + c.random, miss);
    EXPECT_GT(hit, 1000u);
    EXPECT_GT(miss, 1000u);
}

TEST_F(LatencyModelTest, CountersClassifyEveryFlush)
{
    for (unsigned i = 0; i < 100; ++i)
        flushCost((i % 3) * 64); // reflush loop
    for (unsigned i = 0; i < 50; ++i)
        flushCost(uint64_t(1 + i) * 1 << 20); // random misses
    auto c = dev_->flushCounts();
    EXPECT_EQ(c.total, 150u);
    EXPECT_EQ(c.total,
              c.reflush + c.sequential + c.random + c.xpline_hit);
    EXPECT_GE(c.reflush, 95u);
    EXPECT_GE(c.random, 40u);
}

TEST_F(LatencyModelTest, FenceCostAndCount)
{
    uint64_t v0 = VClock::now();
    dev_->fence();
    dev_->fence();
    EXPECT_EQ(VClock::now() - v0, 2 * dev_->model().params().fence);
    EXPECT_EQ(dev_->flushCounts().fences, 2u);
}

TEST_F(LatencyModelTest, TraceCapturesOffsets)
{
    dev_->model().startTrace(5);
    for (unsigned i = 0; i < 10; ++i)
        flushCost(i * 4096);
    auto trace = dev_->model().stopTrace();
    ASSERT_EQ(trace.size(), 5u) << "cap respected";
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(trace[i], i * 4096);
}

TEST_F(LatencyModelTest, StopWithoutStartIsEmptyNoop)
{
    EXPECT_FALSE(dev_->model().tracing());
    EXPECT_TRUE(dev_->model().stopTrace().empty());
    // Flushes after a stray stop must not be recorded anywhere.
    flushCost(0);
    EXPECT_TRUE(dev_->model().stopTrace().empty());
}

TEST_F(LatencyModelTest, DoubleStopSecondIsEmpty)
{
    dev_->model().startTrace(8);
    flushCost(0);
    flushCost(4096);
    auto first = dev_->model().stopTrace();
    EXPECT_EQ(first.size(), 2u);
    EXPECT_FALSE(dev_->model().tracing());
    EXPECT_TRUE(dev_->model().stopTrace().empty())
        << "second stop returns nothing, not the old buffer";
}

TEST_F(LatencyModelTest, RestartWhileTracingClearsBuffer)
{
    dev_->model().startTrace(8);
    flushCost(0);
    flushCost(64);
    // Restart discards the two buffered offsets and applies the new
    // capacity.
    dev_->model().startTrace(1);
    EXPECT_TRUE(dev_->model().tracing());
    flushCost(8192);
    flushCost(12288); // over the restarted cap; dropped
    auto trace = dev_->model().stopTrace();
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0], 8192u);
}

TEST_F(LatencyModelTest, ResetInvalidatesPerThreadHistory)
{
    // Build up reflush history, reset, and check the next flush of
    // the same line is NOT treated as a reflush.
    for (unsigned i = 0; i < 10; ++i)
        flushCost(0);
    dev_->model().reset();
    flushCost(0);
    auto c = dev_->flushCounts();
    EXPECT_EQ(c.reflush, 0u);
    EXPECT_EQ(c.total, 1u);
}

TEST_F(LatencyModelTest, PersistFlushesEveryCoveredLine)
{
    dev_->model().reset();
    dev_->persist(dev_->base() + 60, 10, TimeKind::FlushData);
    EXPECT_EQ(dev_->flushCounts().total, 2u) << "straddles two lines";
    dev_->model().reset();
    dev_->persist(dev_->base() + 4096, 256, TimeKind::FlushData);
    EXPECT_EQ(dev_->flushCounts().total, 4u);
}

TEST_F(LatencyModelTest, PerThreadCountsOutliveTheirThreads)
{
    // Each thread cycles over kLines distinct lines of its own for
    // kPasses passes. A pass revisits a line after kLines - 1 other
    // lines, beyond the reflush window, so every flush is a regular
    // one; then each thread flushes its first line kReflushes more
    // times back to back, and those are reflushes (distance 0).
    constexpr unsigned kThreads = 4;
    constexpr unsigned kLines = 16;
    constexpr unsigned kPasses = 3;
    constexpr unsigned kReflushes = 5;
    constexpr unsigned kFences = 7;
    ASSERT_GE(kLines, dev_->model().params().reflush_window + 1);
    dev_->model().reset();

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([this, t] {
            uint64_t base = (uint64_t(t) + 1) << 20;
            for (unsigned p = 0; p < kPasses; ++p)
                for (unsigned i = 0; i < kLines; ++i)
                    dev_->flushLine(dev_->base() + base + i * 64,
                                    TimeKind::FlushMeta);
            for (unsigned r = 0; r < kReflushes; ++r)
                dev_->flushLine(dev_->base() + base + (kLines - 1) * 64,
                                TimeKind::FlushMeta);
            for (unsigned f = 0; f < kFences; ++f)
                dev_->fence();
        });
    }
    for (auto &w : workers)
        w.join(); // every counting thread has exited

    FlushClassCounts c = dev_->flushCounts();
    EXPECT_EQ(c.total, kThreads * (kPasses * kLines + kReflushes));
    EXPECT_EQ(c.reflush, kThreads * kReflushes);
    EXPECT_EQ(c.total,
              c.reflush + c.sequential + c.random + c.xpline_hit);
    EXPECT_EQ(c.fences, kThreads * kFences);

    dev_->model().reset();
    c = dev_->flushCounts();
    EXPECT_EQ(c.total, 0u);
    EXPECT_EQ(c.reflush + c.sequential + c.random + c.xpline_hit, 0u);
    EXPECT_EQ(c.fences, 0u);

    // The test thread's own block survives the reset and keeps
    // counting from zero.
    flushCost(0);
    dev_->fence();
    c = dev_->flushCounts();
    EXPECT_EQ(c.total, 1u);
    EXPECT_EQ(c.fences, 1u);
}

} // namespace
} // namespace nvalloc
