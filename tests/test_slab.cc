/**
 * @file
 * Slab/VSlab unit tests: geometry for every size class (TEST_P), the
 * bitfield range claim against its bit-at-a-time reference, the
 * availability state machine (pop / lend / allocate / free), the
 * persistent-vs-volatile bitmap contract, rebuild-from-header, and
 * the full slab-morphing protocol of §5.2 — index table contents,
 * cnt_slab/cnt_block math for small→large and large→small morphs,
 * block_before classification and release, and flag-based undo/redo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

#include "common/rng.h"
#include "nvalloc/slab.h"

namespace nvalloc {
namespace {

class SlabFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 26;
        dev_ = std::make_unique<PmDevice>(cfg);
        slab_off_ = dev_->mapRegion(kSlabSize);
    }

    std::unique_ptr<PmDevice> dev_;
    uint64_t slab_off_ = 0;
};

class SlabGeometryAllClasses
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SlabGeometryAllClasses, CapacityAndOffsetsConsistent)
{
    unsigned cls = GetParam();
    SlabGeometry geo = SlabGeometry::compute(cls, 6);
    EXPECT_GT(geo.capacity, 0u);
    EXPECT_LE(kSlabHeaderSize + uint64_t(geo.capacity) * geo.block_size,
              kSlabSize);
    // Adding one more block must not fit.
    EXPECT_GT(kSlabHeaderSize +
                  uint64_t(geo.capacity + 1) * geo.block_size,
              kSlabSize);
    EXPECT_LE(geo.capacity, kMaxSlabBlocks);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SlabGeometryAllClasses,
                         ::testing::Range(0u, kNumSizeClasses));

using Bitfield = SlabBitfield<kMaxSlabBlocks>;

/** The bit-at-a-time loop popBlockSpread ran before claimRange: the
 *  reference the word-level claim must agree with. */
unsigned
claimRangeBitwise(Bitfield &bits, unsigned begin, unsigned end)
{
    for (unsigned idx = begin; idx < end; ++idx) {
        if (!bits.test(idx) && bits.tryClaim(idx))
            return idx;
    }
    return Bitfield::kNone;
}

TEST(SlabBitfieldRange, ClaimMatchesBitAtATimeReference)
{
    // 85 blocks per bitmap line is what 6 stripes give (512 / 6):
    // such ranges start and end mid-word and straddle word bounds.
    const unsigned kLineBlocks[] = {85, 512 / 5, 512, 64, 1};
    Rng rng(20261017);
    for (unsigned round = 0; round < 400; ++round) {
        unsigned line_blocks = kLineBlocks[round % 5];
        // Half the ranges sit on popBlockSpread's line grid, half
        // start anywhere.
        unsigned begin =
            round % 2 ? unsigned(rng.nextBounded(kMaxSlabBlocks))
                      : unsigned(rng.nextBounded(kMaxSlabBlocks /
                                                 line_blocks)) *
                            line_blocks;
        unsigned end = std::min(kMaxSlabBlocks, begin + line_blocks);

        Bitfield word, bit;
        double density = rng.nextDouble();
        for (unsigned i = 0; i < kMaxSlabBlocks; ++i) {
            if (rng.nextDouble() < density) {
                word.set(i);
                bit.set(i);
            }
        }
        // Claim the range dry; every step must pick the same bit.
        for (;;) {
            unsigned want = claimRangeBitwise(bit, begin, end);
            ASSERT_EQ(word.claimRange(begin, end), want)
                << "range [" << begin << ", " << end << ")";
            if (want == Bitfield::kNone)
                break;
        }
        for (unsigned i = 0; i < kMaxSlabBlocks; ++i)
            ASSERT_EQ(word.test(i), bit.test(i)) << "bit " << i;
    }
}

TEST(SlabBitfieldRange, OneBitAndFullRanges)
{
    Bitfield bits;
    // A one-bit range claims its bit once.
    EXPECT_EQ(bits.claimRange(130, 131), 130u);
    EXPECT_EQ(bits.claimRange(130, 131), Bitfield::kNone);
    EXPECT_FALSE(bits.test(129));
    EXPECT_FALSE(bits.test(131));

    // A range whose every bit is set returns kNone and changes
    // nothing, including a range straddling a word boundary.
    for (unsigned i = 40; i < 125; ++i)
        bits.set(i);
    EXPECT_EQ(bits.claimRange(40, 125), Bitfield::kNone);
    EXPECT_EQ(bits.popcount(kMaxSlabBlocks), 85u + 1u);
    EXPECT_EQ(bits.claimRange(40, 126), 125u);
}

TEST_F(SlabFixture, FreshSlabFullyAvailable)
{
    VSlab slab(dev_.get(), slab_off_, sizeToClass(64), 6, false);
    EXPECT_EQ(slab.available(), slab.capacity());
    EXPECT_EQ(slab.liveBlocks(), 0u);
    EXPECT_EQ(slab.header()->magic, kSlabMagic);
    EXPECT_FALSE(slab.morphing());
}

TEST_F(SlabFixture, PopAllocateFreeLifecycle)
{
    VSlab slab(dev_.get(), slab_off_, sizeToClass(128), 6, false);
    unsigned cap = slab.capacity();

    unsigned idx = slab.popBlock();
    ASSERT_LT(idx, cap);
    EXPECT_EQ(slab.lentBlocks(), 1u);
    EXPECT_EQ(slab.available(), cap - 1);

    slab.markAllocated(idx);
    EXPECT_EQ(slab.lentBlocks(), 0u);
    EXPECT_EQ(slab.liveBlocks(), 1u);
    EXPECT_TRUE(slab.isAllocated(idx));

    slab.markFree(idx);
    EXPECT_EQ(slab.liveBlocks(), 0u);
    EXPECT_EQ(slab.available(), cap);
    EXPECT_FALSE(slab.isAllocated(idx));
}

TEST_F(SlabFixture, PopUntilExhausted)
{
    VSlab slab(dev_.get(), slab_off_, sizeToClass(2048), 6, false);
    std::set<unsigned> seen;
    for (unsigned i = 0; i < slab.capacity(); ++i) {
        unsigned idx = slab.popBlock();
        ASSERT_LT(idx, slab.capacity());
        ASSERT_TRUE(seen.insert(idx).second);
    }
    EXPECT_EQ(slab.popBlock(), slab.capacity());
    EXPECT_EQ(slab.popBlockSpread(), slab.capacity());
}

TEST_F(SlabFixture, BlockOffsetsRoundtrip)
{
    VSlab slab(dev_.get(), slab_off_, sizeToClass(160), 6, false);
    for (unsigned idx = 0; idx < slab.capacity(); idx += 17) {
        uint64_t off = slab.blockOffset(idx);
        EXPECT_EQ(slab.blockIndexOf(off), idx);
        EXPECT_GE(off, slab_off_ + kSlabHeaderSize);
        EXPECT_LE(off + slab.blockSize(), slab_off_ + kSlabSize);
    }
    // Misaligned offsets are rejected.
    EXPECT_EQ(slab.blockIndexOf(slab.blockOffset(0) + 1),
              slab.capacity());
    EXPECT_EQ(slab.blockIndexOf(slab_off_), slab.capacity());
}

TEST_F(SlabFixture, RebuildFromHeaderMatches)
{
    std::set<unsigned> allocated;
    {
        VSlab slab(dev_.get(), slab_off_, sizeToClass(96), 6, false);
        for (int i = 0; i < 50; ++i) {
            unsigned idx = slab.popBlock();
            slab.markAllocated(idx);
            allocated.insert(idx);
        }
        // Free a few again.
        for (int i = 0; i < 10; ++i) {
            unsigned idx = *allocated.begin();
            allocated.erase(allocated.begin());
            slab.markFree(idx);
        }
    }
    VSlab rebuilt(dev_.get(), slab_off_, false);
    EXPECT_EQ(rebuilt.sizeClass(), sizeToClass(96));
    EXPECT_EQ(rebuilt.liveBlocks(), allocated.size());
    for (unsigned idx = 0; idx < rebuilt.capacity(); ++idx)
        EXPECT_EQ(rebuilt.isAllocated(idx), allocated.count(idx) > 0);
}

TEST_F(SlabFixture, PersistentBitsFlushedInLogMode)
{
    VSlab slab(dev_.get(), slab_off_, sizeToClass(64), 6, false);
    dev_->model().reset();
    unsigned idx = slab.popBlock();
    slab.markAllocated(idx);
    EXPECT_GE(dev_->flushCounts().total, 1u);

    // GC mode writes the bit but never flushes it.
    uint64_t off2 = dev_->mapRegion(kSlabSize);
    VSlab gc_slab(dev_.get(), off2, sizeToClass(64), 6, true);
    dev_->model().reset();
    unsigned idx2 = gc_slab.popBlock();
    gc_slab.markAllocated(idx2);
    EXPECT_EQ(dev_->flushCounts().total, 0u);
    EXPECT_TRUE(gc_slab.isAllocated(idx2)) << "bit written anyway";
}

TEST(SlabFormatCrash, StaleBitsOfThePreviousOwnerAreNeverAdopted)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 26;
    cfg.shadow = true;
    PmDevice dev(cfg);
    uint64_t off = dev.mapRegion(kSlabSize);
    char *hdr = static_cast<char *>(dev.at(off));

    // A crash policy that lands the header's line 0 and drops the
    // first bitmap line of the crashed epoch (the coins are fixed per
    // seed and line, so search for such a seed).
    FaultPolicy policy;
    policy.staged_persist_fraction = 0.5;
    for (;; ++policy.seed) {
        FaultInjector coins;
        coins.setPolicy(policy);
        if (coins.stagedLineLands(off) &&
            !coins.stagedLineLands(off + kCacheLine))
            break;
    }
    dev.setFaultPolicy(policy);

    // Crash at each of the format's fences in turn, over an extent
    // whose last owner left every bit set: whatever header recovery
    // trusts must come with a zeroed bitmap.
    for (uint64_t fence = 1;; ++fence) {
        std::memset(hdr, 0xff, kSlabHeaderSize);
        dev.persistFence(hdr, kSlabHeaderSize, TimeKind::FlushData);
        dev.armCrashAtFence(fence);
        {
            VSlab fresh(&dev, off, sizeToClass(64), 6, false);
        }
        bool crashed = dev.crashTriggered();
        dev.crash();
        if (!crashed)
            break; // the format ran past its last fence
        if (!VSlab::headerLooksValid(&dev, off, true))
            continue; // not adopted: recovery quarantines the slab
        VSlab adopted(&dev, off, false);
        EXPECT_EQ(adopted.liveBlocks(), 0u)
            << "crash at fence " << fence << " adopted stale bits";
    }
}

// ---- morphing ---------------------------------------------------------

class MorphFixture : public SlabFixture
{
  protected:
    /** Build a slab of `from` with `live` allocated blocks at chosen
     *  indices. */
    std::unique_ptr<VSlab>
    makeSparse(unsigned from_size, const std::vector<unsigned> &live)
    {
        auto slab = std::make_unique<VSlab>(
            dev_.get(), slab_off_, sizeToClass(from_size), 6, false);
        // Claim specific indices (pop everything, return the rest).
        std::vector<unsigned> popped;
        for (unsigned i = 0; i < slab->capacity(); ++i)
            popped.push_back(slab->popBlock());
        std::set<unsigned> keep(live.begin(), live.end());
        for (unsigned idx : popped) {
            if (keep.count(idx))
                slab->markAllocated(idx);
            else
                slab->unlendBlock(idx);
        }
        return slab;
    }
};

TEST_F(MorphFixture, SmallToLargeTracksOverlaps)
{
    // 64 B slab with three live blocks; morph to 256 B: each old block
    // overlaps exactly one new block (4 old per new).
    auto slab = makeSparse(64, {0, 1, 9});
    ASSERT_TRUE(slab->morphEligible(0.2));

    unsigned old_cap = slab->capacity();
    slab->morphTo(sizeToClass(256), 6);

    EXPECT_EQ(slab->sizeClass(), sizeToClass(256));
    EXPECT_TRUE(slab->morphing());
    EXPECT_EQ(slab->cntSlab(), 3u);
    EXPECT_EQ(slab->header()->index_count, 3u);
    EXPECT_EQ(slab->header()->old_capacity, old_cap);

    // Old blocks 0 and 1 share new block 0 (cnt 2); old 9 covers new 2.
    EXPECT_EQ(slab->cntBlock(0), 2u);
    EXPECT_EQ(slab->cntBlock(1), 0u);
    EXPECT_EQ(slab->cntBlock(2), 1u);

    // Occupied new blocks are unavailable.
    EXPECT_EQ(slab->available(), slab->capacity() - 2);
}

TEST_F(MorphFixture, LargeToSmallSpansManyNewBlocks)
{
    // 1024 B slab, one live block; morph to 128 B: the old block spans
    // 8 new blocks.
    auto slab = makeSparse(1024, {2});
    slab->morphTo(sizeToClass(128), 6);
    EXPECT_EQ(slab->cntSlab(), 1u);
    unsigned covered = 0;
    for (unsigned nb = 0; nb < slab->capacity(); ++nb)
        covered += slab->cntBlock(nb) ? 1 : 0;
    EXPECT_EQ(covered, 8u);
    EXPECT_EQ(slab->available(), slab->capacity() - 8);
}

TEST_F(MorphFixture, OldBlockClassificationAndRelease)
{
    auto slab = makeSparse(64, {0, 1, 9});
    uint64_t old0 = slab->blockOffset(0);
    uint64_t old9 = slab->blockOffset(9);
    slab->morphTo(sizeToClass(256), 6);

    unsigned old_idx = 0;
    ASSERT_TRUE(slab->isOldBlock(old0, old_idx));
    EXPECT_EQ(old_idx, 0u);
    ASSERT_TRUE(slab->isOldBlock(old9, old_idx));
    EXPECT_EQ(old_idx, 9u);

    // A new-geometry block handed out is never classified as old.
    unsigned fresh = slab->popBlock();
    slab->markAllocated(fresh);
    EXPECT_FALSE(slab->isOldBlock(slab->blockOffset(fresh), old_idx));

    // Release old blocks one by one; the morph completes at zero.
    EXPECT_FALSE(slab->freeOldBlock(0));
    EXPECT_EQ(slab->cntSlab(), 2u);
    EXPECT_FALSE(slab->freeOldBlock(1));
    EXPECT_TRUE(slab->freeOldBlock(9)) << "last old block completes";
    EXPECT_FALSE(slab->morphing());
    EXPECT_EQ(slab->header()->index_count, 0u);
    // All capacity minus the fresh allocation is available again.
    EXPECT_EQ(slab->available(), slab->capacity() - 1);
}

TEST_F(MorphFixture, SharedNewBlockFreesOnlyWhenAllOldGone)
{
    auto slab = makeSparse(64, {0, 1}); // both inside new block 0
    slab->morphTo(sizeToClass(256), 6);
    ASSERT_EQ(slab->cntBlock(0), 2u);
    unsigned before = slab->available();
    slab->freeOldBlock(0);
    EXPECT_EQ(slab->available(), before) << "block 1 still pins it";
    slab->freeOldBlock(1);
    EXPECT_EQ(slab->available(), slab->capacity());
}

TEST_F(MorphFixture, IneligibleWhenBusyOrLent)
{
    // Too full.
    {
        std::vector<unsigned> many;
        for (unsigned i = 0; i < 400; ++i)
            many.push_back(i);
        auto slab = makeSparse(64, many);
        EXPECT_FALSE(slab->morphEligible(0.2));
        EXPECT_TRUE(slab->morphEligible(0.6));
    }
    // Lent blocks pin the slab.
    {
        uint64_t off2 = dev_->mapRegion(kSlabSize);
        VSlab slab(dev_.get(), off2, sizeToClass(64), 6, false);
        unsigned a = slab.popBlock();
        slab.markAllocated(a);
        EXPECT_TRUE(slab.morphEligible(0.2));
        slab.popBlock(); // lend one
        EXPECT_FALSE(slab.morphEligible(0.2));
    }
}

TEST_F(MorphFixture, MorphStateSurvivesRebuild)
{
    auto slab = makeSparse(64, {0, 1, 9});
    slab->morphTo(sizeToClass(256), 6);
    unsigned fresh = slab->popBlock();
    slab->markAllocated(fresh);
    slab.reset(); // drop volatile state

    VSlab rebuilt(dev_.get(), slab_off_, false);
    EXPECT_TRUE(rebuilt.morphing());
    EXPECT_EQ(rebuilt.cntSlab(), 3u);
    EXPECT_EQ(rebuilt.sizeClass(), sizeToClass(256));
    EXPECT_EQ(rebuilt.cntBlock(0), 2u);
    EXPECT_TRUE(rebuilt.isAllocated(fresh));
    unsigned old_idx = 0;
    EXPECT_TRUE(rebuilt.isOldBlock(rebuilt.slabOffset() +
                                       kSlabHeaderSize + 9 * 64,
                                   old_idx));
}

TEST_F(MorphFixture, CrashAtEarlyFlagUndoesMorph)
{
    auto slab = makeSparse(64, {0, 5});
    // Hand-stage steps 1-2 as a crash mid-morph would leave them.
    SlabHeader *hdr = slab->header();
    hdr->old_size_class = hdr->size_class;
    hdr->old_capacity = hdr->capacity;
    hdr->index_table[0] = 0 | kIndexAllocated;
    hdr->index_table[1] = 5 | kIndexAllocated;
    hdr->index_count = 2;
    hdr->flag = 2;
    slab.reset();

    VSlab rebuilt(dev_.get(), slab_off_, false);
    EXPECT_EQ(rebuilt.header()->flag, 0u) << "undo clears the flag";
    EXPECT_FALSE(rebuilt.morphing()) << "staging discarded";
    EXPECT_EQ(rebuilt.sizeClass(), sizeToClass(64));
    EXPECT_EQ(rebuilt.liveBlocks(), 2u);
}

TEST_F(MorphFixture, TornFlagTwoCommitKeepsLiveBlocks)
{
    // Crash at the fence that commits flag 2 while landing lines tear
    // at 8-byte words: whatever subset of the flag line survives,
    // recovery must keep all three live blocks (rolled back from the
    // index table, or never morphed).
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 26;
        cfg.shadow = true;
        dev_ = std::make_unique<PmDevice>(cfg);
        slab_off_ = dev_->mapRegion(kSlabSize);
        auto slab = makeSparse(64, {0, 5, 9});

        FaultPolicy fp;
        fp.seed = seed;
        fp.staged_persist_fraction = 0.5;
        fp.word_granularity = true;
        dev_->setFaultPolicy(fp);
        dev_->armCrashAtFence(3); // fences: flag 1, index table, flag 2
        ASSERT_TRUE(slab->morphTo(sizeToClass(256), 6));
        ASSERT_TRUE(dev_->crashTriggered());
        slab.reset();
        dev_->crash();

        VSlab rebuilt(dev_.get(), slab_off_, false);
        EXPECT_EQ(rebuilt.sizeClass(), sizeToClass(64)) << "seed " << seed;
        EXPECT_EQ(rebuilt.liveBlocks(), 3u) << "seed " << seed;
    }
}

} // namespace
} // namespace nvalloc
