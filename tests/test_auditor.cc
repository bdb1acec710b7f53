/**
 * @file
 * HeapAuditor tests: a healthy heap audits clean; each class of
 * injected damage is detected as the right violation; repair rebuilds
 * everything derivable and the repaired heap audits clean again.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"

namespace nvalloc {
namespace {

struct Heap
{
    explicit Heap(Consistency c = Consistency::Log,
                  size_t dev_size = size_t{256} << 20)
        : dcfg{}, dev{(dcfg.size = dev_size, dcfg)},
          alloc_h{NvAlloc::openOrDie(dev, makeCfg(c))},
          alloc{*alloc_h}, ctx{alloc.attachThread()}
    {
    }

    static NvAllocConfig
    makeCfg(Consistency c)
    {
        NvAllocConfig cfg;
        cfg.consistency = c;
        return cfg;
    }

    /** Mixed sizes, some frees; leaves live objects behind. */
    std::vector<uint64_t>
    churn(unsigned ops = 3000)
    {
        static const size_t sizes[] = {16,   96,       512,      2048,
                                       8192, 24 * 1024, 128 * 1024};
        std::vector<uint64_t> live;
        uint64_t rng = 0x2545f4914f6cdd1dULL;
        for (unsigned i = 0; i < ops; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if (live.empty() || rng % 3 != 0) {
                uint64_t off = alloc.allocOffset(
                    *ctx, sizes[rng % 7], nullptr);
                if (off)
                    live.push_back(off);
            } else {
                size_t pick = rng % live.size();
                alloc.freeOffset(*ctx, live[pick], nullptr);
                live[pick] = live.back();
                live.pop_back();
            }
        }
        return live;
    }

    VSlab *
    quietSlab()
    {
        VSlab *found = nullptr;
        for (unsigned a = 0; a < alloc.numArenas() && !found; ++a) {
            alloc.arena(a).forEachSlab([&](VSlab *s) {
                if (!found && !s->morphing() && s->lentBlocks() == 0)
                    found = s;
            });
        }
        return found;
    }

    PmDeviceConfig dcfg;
    PmDevice dev;
    std::unique_ptr<NvAlloc> alloc_h;
    NvAlloc &alloc;
    ThreadCtx *ctx;
};

TEST(Auditor, HealthyHeapAuditsClean)
{
    for (Consistency c : {Consistency::Log, Consistency::Gc}) {
        Heap h(c);
        ASSERT_NE(h.ctx, nullptr);
        h.churn();
        AuditReport rep = HeapAuditor(h.alloc).audit();
        EXPECT_EQ(rep.violations(), 0u) << rep.summary();
        EXPECT_TRUE(rep.clean());
    }
}

TEST(Auditor, InPlaceDescriptorHeapAuditsClean)
{
    // The Base config: no bookkeeping log, in-place descriptors.
    PmDeviceConfig dcfg;
    dcfg.size = size_t{256} << 20;
    PmDevice dev(dcfg);
    NvAllocConfig cfg;
    cfg.consistency = Consistency::Log;
    cfg.log_bookkeeping = false;
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);
    for (unsigned i = 0; i < 500; ++i)
        alloc.allocOffset(*ctx, 40 * 1024, nullptr);
    AuditReport rep = HeapAuditor(alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST(Auditor, StrayBitmapBitIsDetectedAndRebuilt)
{
    Heap h;
    ASSERT_NE(h.ctx, nullptr);
    h.churn();
    VSlab *slab = h.quietSlab();
    ASSERT_NE(slab, nullptr);

    // A bit beyond the geometry's mapped slots: allocated-per-bitmap
    // but not live — exactly what a torn bitmap flush leaves behind.
    slab->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;

    HeapAuditor auditor(h.alloc);
    AuditReport rep = auditor.audit();
    EXPECT_EQ(rep.bitmap_mismatch, 1u) << rep.summary();

    AuditReport fixed = auditor.repair();
    EXPECT_EQ(fixed.repaired_bitmaps, 1u) << fixed.summary();
    AuditReport after = auditor.audit();
    EXPECT_EQ(after.violations(), 0u) << after.summary();
}

TEST(Auditor, CorruptSlabHeaderIsDetectedAndRewritten)
{
    Heap h;
    ASSERT_NE(h.ctx, nullptr);
    h.churn();
    VSlab *slab = h.quietSlab();
    ASSERT_NE(slab, nullptr);

    // Tear the header's first line: the crc no longer matches.
    slab->header()->size_class ^= 0x55;

    HeapAuditor auditor(h.alloc);
    AuditReport rep = auditor.audit();
    EXPECT_GE(rep.slab_header_bad, 1u) << rep.summary();

    AuditReport fixed = auditor.repair();
    EXPECT_GE(fixed.repaired_headers, 1u) << fixed.summary();
    AuditReport after = auditor.audit();
    EXPECT_EQ(after.violations(), 0u) << after.summary();
}

TEST(Auditor, PoisonedFreeLineIsScrubbedPoisonedLiveLineIsNot)
{
    Heap h;
    ASSERT_NE(h.ctx, nullptr);
    std::vector<uint64_t> live = h.churn();
    ASSERT_FALSE(live.empty());

    // One poisoned line in unmapped space (free) and one inside a
    // live block (user data: not the auditor's to scrub).
    h.dev.poisonLine(h.dev.size() - kCacheLine);
    uint64_t live_line = live.front() & ~uint64_t(kCacheLine - 1);
    h.dev.poisonLine(live_line);

    HeapAuditor auditor(h.alloc);
    AuditReport rep = auditor.audit();
    EXPECT_EQ(rep.poisoned_free_lines, 1u) << rep.summary();
    EXPECT_EQ(rep.poisoned_live_lines, 1u) << rep.summary();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();

    AuditReport fixed = auditor.repair();
    EXPECT_EQ(fixed.scrubbed_lines, 1u) << fixed.summary();

    AuditReport after = auditor.audit();
    EXPECT_EQ(after.poisoned_free_lines, 0u) << after.summary();
    EXPECT_EQ(after.poisoned_live_lines, 1u) << after.summary();
    EXPECT_TRUE(h.dev.isPoisoned(h.dev.at(live_line), 8));
}

TEST(Auditor, TornWalEntryIsDetectedAndZeroed)
{
    Heap h;
    ASSERT_NE(h.ctx, nullptr);
    h.churn(500);

    auto *e = static_cast<WalEntry *>(
        h.dev.at(h.alloc.walRingOffset(3)));
    e->block_op = (uint64_t(0x777) << 2) | kWalAlloc;
    e->seq = 9;
    e->where_off = kWalNoWhere;
    e->size = 128;
    e->crc = walEntryCrc(*e) ^ 0x1; // torn

    HeapAuditor auditor(h.alloc);
    AuditReport rep = auditor.audit();
    EXPECT_EQ(rep.wal_entry_bad, 1u) << rep.summary();

    AuditReport fixed = auditor.repair();
    EXPECT_EQ(fixed.repaired_wal_entries, 1u) << fixed.summary();
    AuditReport after = auditor.audit();
    EXPECT_EQ(after.violations(), 0u) << after.summary();
}

TEST(Auditor, DoubleFreeLeavesHeapCleanAndAccounted)
{
    Heap h;
    ASSERT_NE(h.ctx, nullptr);
    uint64_t off = h.alloc.allocOffset(*h.ctx, 256, nullptr);
    ASSERT_NE(off, 0u);
    ASSERT_EQ(h.alloc.freeOffset(*h.ctx, off, nullptr), NvStatus::Ok);

    uint64_t before = readCtl(h.alloc, "stats.degraded.invalid_frees");
    EXPECT_EQ(h.alloc.freeOffset(*h.ctx, off, nullptr),
              NvStatus::InvalidFree);
    EXPECT_EQ(readCtl(h.alloc, "stats.degraded.invalid_frees"), before + 1);

    // Foreign pointers (never allocated / outside any slab) likewise.
    EXPECT_EQ(h.alloc.freeOffset(*h.ctx, h.dev.size() - 4096, nullptr),
              NvStatus::InvalidFree);
    EXPECT_EQ(h.alloc.freeOffset(*h.ctx, 0, nullptr),
              NvStatus::InvalidFree);

    AuditReport rep = HeapAuditor(h.alloc).audit();
    EXPECT_EQ(rep.violations(), 0u) << rep.summary();
}

TEST(Auditor, FailedOpenNeverAuditsClean)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{128} << 20;
    PmDevice dev(dcfg);
    uint64_t sb_crc_line;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        alloc.allocOffset(*ctx, 512, nullptr);
        alloc.dirtyRestart(); // force the recovery path on reopen
        sb_crc_line = 0;      // superblock root line
    }
    // Corrupt the superblock body so the recovery crc check fails.
    auto *sb_bytes = static_cast<uint8_t *>(dev.at(sb_crc_line));
    sb_bytes[16] ^= 0xff;

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    EXPECT_EQ(again.openStatus(), NvStatus::CorruptMetadata);
    EXPECT_EQ(again.mode(), HeapMode::Failed);
    EXPECT_EQ(again.attachThread(), nullptr);
    EXPECT_EQ(again.lastStatus(), NvStatus::CorruptMetadata);

    AuditReport rep = HeapAuditor(again).audit();
    EXPECT_GT(rep.violations(), 0u) << rep.summary();
}

} // namespace
} // namespace nvalloc
