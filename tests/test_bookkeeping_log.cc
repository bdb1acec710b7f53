/**
 * @file
 * Bookkeeping log tests (§5.3): append/tombstone semantics, replay
 * round trips, fast GC of empty chunks, slow GC with entry
 * relocation and the alt-bit switch, interleaved entry placement, and
 * recycling of unreachable chunks after an interrupted slow GC.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "nvalloc/bookkeeping_log.h"

namespace nvalloc {
namespace {

struct Owner
{
    LogEntryRef ref;
};

class LogFixture : public ::testing::Test
{
  protected:
    static constexpr size_t kRegionBytes = 64 * 1024; // ~60 chunks

    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 26;
        dev_ = std::make_unique<PmDevice>(cfg);
        region_ = dev_->mapRegion(kRegionBytes);
        log_ = std::make_unique<BookkeepingLog>();
        log_->attach(dev_.get(), region_, kRegionBytes,
                     /*interleaved=*/true, /*gc_threshold=*/0.5,
                     /*create=*/true);
        log_->setRelocateFn([](void *owner, LogEntryRef ref) {
            static_cast<Owner *>(owner)->ref = ref;
        });
        log_->setTelemetry(&tel_);
    }

    /** Reattach + replay into a map off->(type,size). */
    std::map<uint64_t, std::pair<LogType, uint64_t>>
    replayAll(BookkeepingLog &log)
    {
        std::map<uint64_t, std::pair<LogType, uint64_t>> out;
        log.replay([&](LogType type, uint64_t off, uint64_t size,
                       LogEntryRef) {
            out[off] = {type, size};
        });
        return out;
    }

    Telemetry tel_; //!< where log_ counts its GC passes
    std::unique_ptr<PmDevice> dev_;
    uint64_t region_ = 0;
    std::unique_ptr<BookkeepingLog> log_;
};

TEST_F(LogFixture, AppendAndReplayRoundtrip)
{
    log_->append(kLogNormal, 1 << 20, 65536, nullptr);
    log_->append(kLogSlab, 2 << 20, kSlabSize, nullptr);
    EXPECT_EQ(log_->liveEntries(), 2u);

    BookkeepingLog fresh;
    fresh.attach(dev_.get(), region_, kRegionBytes, true, 0.5,
                 /*create=*/false);
    auto entries = replayAll(fresh);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[1 << 20].first, kLogNormal);
    EXPECT_EQ(entries[1 << 20].second, 65536u);
    EXPECT_EQ(entries[2 << 20].first, kLogSlab);
}

TEST_F(LogFixture, TombstoneRemovesEntryFromReplay)
{
    LogEntryRef a = log_->append(kLogNormal, 1 << 20, 4096, nullptr);
    log_->append(kLogNormal, 2 << 20, 4096, nullptr);
    log_->tombstone(a);
    EXPECT_EQ(log_->liveEntries(), 1u);

    BookkeepingLog fresh;
    fresh.attach(dev_.get(), region_, kRegionBytes, true, 0.5,
                 false);
    auto entries = replayAll(fresh);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries.count(1 << 20), 0u);
    EXPECT_EQ(entries.count(2 << 20), 1u);
}

TEST_F(LogFixture, ManyEntriesSpanChunks)
{
    for (uint64_t i = 0; i < 5 * kLogEntriesPerChunk; ++i)
        log_->append(kLogNormal, (i + 1) << 12, 4096, nullptr);
    EXPECT_GE(log_->activeChunks(), 5u);

    BookkeepingLog fresh;
    fresh.attach(dev_.get(), region_, kRegionBytes, true, 0.5,
                 false);
    EXPECT_EQ(replayAll(fresh).size(), 5 * kLogEntriesPerChunk);
}

TEST_F(LogFixture, FastGcRecyclesEmptyChunks)
{
    std::vector<LogEntryRef> refs;
    for (uint64_t i = 0; i < 4 * kLogEntriesPerChunk; ++i)
        refs.push_back(
            log_->append(kLogNormal, (i + 1) << 12, 4096, nullptr));
    size_t chunks_before = log_->activeChunks();

    // Kill everything in the first two chunks.
    for (unsigned i = 0; i < 2 * kLogEntriesPerChunk; ++i)
        log_->tombstone(refs[i]);

    // Appends eventually trigger fast GC (free list empty).
    uint64_t fast_before = tel_.total(StatCounter::LogFastGc);
    for (uint64_t i = 0; i < 8 * kLogEntriesPerChunk; ++i)
        log_->append(kLogNormal, (1000 + i) << 12, 4096, nullptr);
    EXPECT_GT(tel_.total(StatCounter::LogFastGc), fast_before);
    // Chunk count grows far less than the appended volume because
    // empties were recycled.
    EXPECT_LT(log_->activeChunks(), chunks_before + 9);
}

TEST_F(LogFixture, SlowGcCompactsAndRelocatesOwners)
{
    std::vector<std::unique_ptr<Owner>> owners;
    std::vector<LogEntryRef> refs;
    for (uint64_t i = 0; i < 3 * kLogEntriesPerChunk; ++i) {
        owners.push_back(std::make_unique<Owner>());
        owners.back()->ref = log_->append(
            kLogNormal, (i + 1) << 12, 4096, owners.back().get());
    }
    // Tombstone two thirds.
    for (size_t i = 0; i < owners.size(); ++i) {
        if (i % 3 != 0)
            log_->tombstone(owners[i]->ref);
    }
    size_t live = log_->liveEntries();

    log_->slowGc();
    EXPECT_EQ(log_->liveEntries(), live);
    EXPECT_LE(log_->activeChunks(), 2u) << "compacted";

    // Relocated refs must still resolve: replay and compare.
    BookkeepingLog fresh;
    fresh.attach(dev_.get(), region_, kRegionBytes, true, 0.5,
                 false);
    auto entries = replayAll(fresh);
    EXPECT_EQ(entries.size(), live);
    for (size_t i = 0; i < owners.size(); i += 3)
        EXPECT_EQ(entries.count((i + 1) << 12), 1u);

    // Tombstoning through a relocated ref still works.
    log_->tombstone(owners[0]->ref);
    EXPECT_EQ(log_->liveEntries(), live - 1);
}

TEST_F(LogFixture, SlowGcFlipsAltBit)
{
    auto *hdr = static_cast<LogHeader *>(dev_->at(region_));
    uint32_t alt0 = hdr->alt;
    log_->append(kLogNormal, 1 << 20, 4096, nullptr);
    log_->slowGc();
    EXPECT_NE(hdr->alt, alt0);
    log_->slowGc();
    EXPECT_EQ(hdr->alt, alt0);
}

TEST_F(LogFixture, InterleavedEntriesAvoidSameLine)
{
    dev_->model().reset();
    for (unsigned i = 0; i < 32; ++i)
        log_->append(kLogNormal, (i + 1) << 12, 4096, nullptr);
    auto c = dev_->flushCounts();
    // With 8 chunk stripes, consecutive entry flushes never reflush.
    EXPECT_EQ(c.reflush, 0u);

    // Sequential placement re-flushes heavily (8 entries per line).
    uint64_t region2 = dev_->mapRegion(kRegionBytes);
    BookkeepingLog seq;
    seq.attach(dev_.get(), region2, kRegionBytes, /*interleaved=*/false,
               0.5, true);
    dev_->model().reset();
    for (unsigned i = 0; i < 32; ++i)
        seq.append(kLogNormal, (i + 1) << 12, 4096, nullptr);
    EXPECT_GT(dev_->flushCounts().reflush, 20u);
}

TEST_F(LogFixture, EntryPackingRoundtrip)
{
    // addr is 28 bits of 4 KB units (1 TB device) since the fold
    // checksum moved into bits [61:54].
    uint64_t e = logEntryPack(kLogSlab, 0x2345678ULL, 0x3abcdefULL);
    EXPECT_EQ(logEntryType(e), kLogSlab);
    EXPECT_EQ(logEntryAddr(e), 0x2345678ULL);
    EXPECT_EQ(logEntrySize(e), 0x3abcdefULL);
    EXPECT_TRUE(logEntryChecksumOk(e));

    // Any single flipped payload bit must fail verification, and a
    // zeroed slot never verifies (end-of-chunk sentinel).
    EXPECT_FALSE(logEntryChecksumOk(e ^ 1));
    EXPECT_FALSE(logEntryChecksumOk(e ^ (1ULL << 30)));
    EXPECT_FALSE(logEntryChecksumOk(0));
}

TEST_F(LogFixture, ReplayRecyclesUnreachableChunks)
{
    // Fill a few chunks, then mimic a crashed slow GC: carve chunks
    // that are never linked into the published list.
    for (uint64_t i = 0; i < 2 * kLogEntriesPerChunk; ++i)
        log_->append(kLogNormal, (i + 1) << 12, 4096, nullptr);

    BookkeepingLog fresh;
    fresh.attach(dev_.get(), region_, kRegionBytes, true, 0.5,
                 false);
    replayAll(fresh);
    // All carved chunks are either active or back on the free list:
    // appending many more entries must not exhaust the region early.
    for (uint64_t i = 0; i < 30 * kLogEntriesPerChunk; ++i) {
        LogEntryRef ref = fresh.append(kLogNormal, (5000 + i) << 12,
                                       4096, nullptr);
        fresh.tombstone(ref);
    }
    SUCCEED();
}

} // namespace
} // namespace nvalloc
