/**
 * @file
 * TCache unit tests (§5.1, Fig. 6): sub-tcache bucketing by bitmap
 * cache line, cursor rotation across sub-tcaches, capacity limits,
 * LIFO-within-bucket behaviour, and drain.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "nvalloc/tcache.h"

namespace nvalloc {
namespace {

class TcacheFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 26;
        dev_ = std::make_unique<PmDevice>(cfg);
        slab_ = std::make_unique<VSlab>(dev_.get(),
                                        dev_->mapRegion(kSlabSize),
                                        sizeToClass(64), 6, false);
    }

    CachedBlock
    blockFor(unsigned idx)
    {
        return CachedBlock{slab_->blockOffset(idx), slab_.get(), idx};
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<VSlab> slab_;
};

TEST_F(TcacheFixture, PushPopCounts)
{
    TCache tc(6, true, 48);
    unsigned cls = sizeToClass(64);
    EXPECT_TRUE(tc.empty(cls));
    for (unsigned i = 0; i < 48; ++i)
        EXPECT_TRUE(tc.push(cls, blockFor(i)));
    EXPECT_TRUE(tc.full(cls));
    EXPECT_FALSE(tc.push(cls, blockFor(48))) << "capacity enforced";

    std::set<uint64_t> popped;
    CachedBlock b;
    for (unsigned i = 0; i < 48; ++i) {
        ASSERT_TRUE(tc.pop(cls, b));
        ASSERT_TRUE(popped.insert(b.off).second);
    }
    EXPECT_FALSE(tc.pop(cls, b));
    EXPECT_TRUE(tc.empty(cls));
}

TEST_F(TcacheFixture, ConsecutivePopsRotateAcrossBitLines)
{
    // Fill with blocks covering all stripes; consecutive pops must
    // come from different bitmap cache lines (the §5.1 guarantee).
    TCache tc(6, true, 48);
    unsigned cls = sizeToClass(64);
    for (unsigned i = 0; i < 48; ++i)
        tc.push(cls, blockFor(i)); // blocks 0..47 span 6 stripes

    CachedBlock prev{}, cur{};
    ASSERT_TRUE(tc.pop(cls, prev));
    unsigned same_line = 0, pops = 1;
    while (tc.pop(cls, cur)) {
        if (slab_->bitLineOf(cur.idx) == slab_->bitLineOf(prev.idx))
            ++same_line;
        prev = cur;
        ++pops;
    }
    EXPECT_EQ(pops, 48u);
    // With 6 sub-tcaches over 6 lines, adjacent pops share a line only
    // when buckets drain unevenly at the very end.
    EXPECT_LE(same_line, 6u);
}

TEST_F(TcacheFixture, NonInterleavedIsPlainLifo)
{
    TCache tc(6, /*interleaved=*/false, 16);
    EXPECT_EQ(tc.subCount(), 1u);
    unsigned cls = sizeToClass(64);
    for (unsigned i = 0; i < 8; ++i)
        tc.push(cls, blockFor(i));
    CachedBlock b;
    for (int i = 7; i >= 0; --i) {
        ASSERT_TRUE(tc.pop(cls, b));
        EXPECT_EQ(b.idx, unsigned(i)) << "strict LIFO";
    }
}

TEST_F(TcacheFixture, ClassesAreIndependent)
{
    TCache tc(6, true, 8);
    unsigned c64 = sizeToClass(64), c1k = sizeToClass(1024);
    tc.push(c64, blockFor(0));
    EXPECT_EQ(tc.count(c64), 1u);
    EXPECT_EQ(tc.count(c1k), 0u);
    CachedBlock b;
    EXPECT_FALSE(tc.pop(c1k, b));
    EXPECT_TRUE(tc.pop(c64, b));
}

TEST_F(TcacheFixture, DrainVisitsEverythingOnce)
{
    TCache tc(6, true, 48);
    unsigned c64 = sizeToClass(64);
    unsigned c128 = sizeToClass(128);
    for (unsigned i = 0; i < 10; ++i)
        tc.push(c64, blockFor(i));
    for (unsigned i = 10; i < 15; ++i)
        tc.push(c128, blockFor(i));

    std::set<uint64_t> seen;
    unsigned n64 = 0, n128 = 0;
    tc.drain([&](unsigned cls, const CachedBlock &b) {
        EXPECT_TRUE(seen.insert(b.off).second);
        n64 += cls == c64;
        n128 += cls == c128;
    });
    EXPECT_EQ(n64, 10u);
    EXPECT_EQ(n128, 5u);
    EXPECT_TRUE(tc.empty(c64));
    EXPECT_TRUE(tc.empty(c128));
}

} // namespace
} // namespace nvalloc
