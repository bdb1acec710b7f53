/**
 * @file
 * WAL unit tests: append/newestEntry semantics, ring wrap, the
 * implicit-commit replay rule, and interleaved entry placement.
 */

#include <gtest/gtest.h>

#include <memory>

#include "nvalloc/wal.h"

namespace nvalloc {
namespace {

class WalFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 24;
        dev_ = std::make_unique<PmDevice>(cfg);
        ring_off_ = dev_->mapRegion(kWalRingBytes);
    }

    std::unique_ptr<PmDevice> dev_;
    uint64_t ring_off_ = 0;
};

TEST_F(WalFixture, EmptyRingHasNoNewestEntry)
{
    EXPECT_EQ(Wal::newestEntry(dev_.get(), ring_off_), nullptr);
}

TEST_F(WalFixture, NewestEntryTracksAppends)
{
    Wal wal;
    wal.attach(dev_.get(), ring_off_, true, 6);

    wal.append(kWalAlloc, 0x1000, 0x2000, 64);
    const WalEntry *e = Wal::newestEntry(dev_.get(), ring_off_);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(WalOp(e->block_op & 3), kWalAlloc);
    EXPECT_EQ(e->block_op >> 2, 0x1000u);
    EXPECT_EQ(e->where_off, 0x2000u);
    EXPECT_EQ(e->size, 64u);

    wal.append(kWalFree, 0x3000, kWalNoWhere, 0);
    e = Wal::newestEntry(dev_.get(), ring_off_);
    EXPECT_EQ(WalOp(e->block_op & 3), kWalFree);
    EXPECT_EQ(e->block_op >> 2, 0x3000u);
}

TEST_F(WalFixture, WrapKeepsNewestCorrect)
{
    Wal wal;
    wal.attach(dev_.get(), ring_off_, true, 6);
    for (uint64_t i = 1; i <= 3 * kWalRingEntries + 5; ++i)
        wal.append(kWalAlloc, i << 12, kWalNoWhere, 64);
    const WalEntry *e = Wal::newestEntry(dev_.get(), ring_off_);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->seq, 3 * kWalRingEntries + 5);
    EXPECT_EQ(e->block_op >> 2,
              uint64_t(3 * kWalRingEntries + 5) << 12);
}

TEST_F(WalFixture, OneLineEntriesNeverReflush)
{
    // v2 format: an entry is exactly one cache line (payload + crc +
    // pad), so no two appends can share a line and neither placement
    // re-flushes. Before the crc grew the entry past 32 B, sequential
    // placement packed two entries per line and re-flushed on every
    // second append; the format change removes that hazard instead of
    // relying on interleaving to dodge it.
    Wal wal;
    wal.attach(dev_.get(), ring_off_, true, 6);
    dev_->model().reset();
    for (int i = 0; i < 32; ++i)
        wal.append(kWalAlloc, uint64_t(i) << 12, kWalNoWhere, 64);
    EXPECT_EQ(dev_->flushCounts().reflush, 0u);

    uint64_t ring2 = dev_->mapRegion(kWalRingBytes);
    Wal seq;
    seq.attach(dev_.get(), ring2, false, 6);
    dev_->model().reset();
    for (int i = 0; i < 32; ++i)
        seq.append(kWalAlloc, uint64_t(i) << 12, kWalNoWhere, 64);
    EXPECT_EQ(dev_->flushCounts().reflush, 0u);
}

TEST_F(WalFixture, ChecksumRejectsTornEntry)
{
    Wal wal;
    wal.attach(dev_.get(), ring_off_, true, 6);
    wal.append(kWalAlloc, 0x1000, 0x2000, 64);
    wal.append(kWalAlloc, 0x4000, 0x5000, 128);

    // Corrupt the newest entry's payload without fixing its crc — the
    // shape a torn persist leaves. Verification must skip it and fall
    // back to the previous (implicitly committed) entry.
    WalEntry *newest = const_cast<WalEntry *>(
        Wal::newestEntry(dev_.get(), ring_off_));
    ASSERT_NE(newest, nullptr);
    EXPECT_EQ(newest->block_op >> 2, 0x4000u);
    newest->size ^= 0xdead;

    unsigned rejected = 0;
    const WalEntry *e =
        Wal::newestEntry(dev_.get(), ring_off_, &rejected);
    EXPECT_EQ(rejected, 1u);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->block_op >> 2, 0x1000u);

    // With verification off the torn entry wins again.
    e = Wal::newestEntry(dev_.get(), ring_off_, nullptr,
                         /*verify=*/false);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->block_op >> 2, 0x4000u);
}

TEST(Wal, EadrDeviceWritesButDoesNotFlush)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 24;
    cfg.eadr = true;
    PmDevice dev(cfg);
    uint64_t ring_off = dev.mapRegion(kWalRingBytes);
    Wal wal;
    wal.attach(&dev, ring_off, true, 6);
    wal.append(kWalAlloc, 0x5000, kWalNoWhere, 64);
    EXPECT_EQ(dev.flushCounts().total, 0u);
    EXPECT_NE(Wal::newestEntry(&dev, ring_off), nullptr);
}

} // namespace
} // namespace nvalloc
