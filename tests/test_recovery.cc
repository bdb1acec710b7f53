/**
 * @file
 * Crash and recovery tests (paper §4.4).
 *
 * The shadow-mode device discards every store that was never
 * persisted, so destroying an NvAlloc without its destructor running
 * (we simulate by calling dev.crash() and abandoning the instance)
 * exercises exactly the torn states a power cut leaves. Recovery must
 * (a) resurrect all committed objects, (b) leak nothing, and (c) keep
 * the heap allocatable.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"

namespace nvalloc {
namespace {

PmDeviceConfig
shadowCfg()
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 30;
    cfg.shadow = true;
    return cfg;
}

TEST(Recovery, NormalShutdownRebuildsEverything)
{
    PmDevice dev(shadowCfg());
    std::vector<uint64_t> offs;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        uint64_t *root = alloc.rootWord(0);
        for (int i = 0; i < 300; ++i) {
            alloc.mallocTo(*ctx, 64 + (i % 200), root);
            offs.push_back(*root);
            std::memset(alloc.at(*root), i & 0xff, 64);
        }
        // A large extent too.
        alloc.mallocTo(*ctx, 256 * 1024, alloc.rootWord(1));
        alloc.detachThread(ctx);
    } // clean shutdown

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().performed);
    EXPECT_FALSE(again.lastRecovery().after_failure);
    EXPECT_GE(again.lastRecovery().slabs_rebuilt, 1u);
    EXPECT_EQ(liveSmallBlocks(again), 300u);

    // Every committed block must still be allocated and freeable.
    ThreadCtx *ctx = again.attachThread();
    for (uint64_t off : offs)
        again.freeOffset(*ctx, off, nullptr);
    again.freeFrom(*ctx, again.rootWord(1));
    EXPECT_EQ(liveSmallBlocks(again), 0u);
    again.detachThread(ctx);
}

TEST(Recovery, CrashRecoveryLogVariantResolvesInFlightOps)
{
    PmDevice dev(shadowCfg());
    uint64_t committed = 0;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        uint64_t *root = alloc.rootWord(0);
        alloc.mallocTo(*ctx, 128, root);
        committed = *root;
        // Crash: no shutdown, no detach.
        alloc.simulateCrash();
        // Abandon `alloc` without running ~NvAlloc side effects
        // mattering — the device already rolled back.
    }

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().performed);
    EXPECT_TRUE(again.lastRecovery().after_failure);

    // The committed alloc survived: root word points at it.
    EXPECT_EQ(*again.rootWord(0), committed);
    // And it is marked allocated.
    VSlab *slab = static_cast<VSlab *>(again.slabRadix().get(committed));
    ASSERT_NE(slab, nullptr);
    EXPECT_TRUE(slab->isAllocated(slab->blockIndexOf(committed)));

    // Heap remains usable.
    ThreadCtx *ctx = again.attachThread();
    uint64_t off = again.allocOffset(*ctx, 64, nullptr);
    EXPECT_NE(off, 0u);
    again.freeOffset(*ctx, off, nullptr);
    again.freeFrom(*ctx, again.rootWord(0));
    again.detachThread(ctx);
}

TEST(Recovery, LogVariantLeaksNothingOnVolatileAttach)
{
    // An allocation whose attach word was never published persistently
    // must be rolled back by WAL replay.
    PmDevice dev(shadowCfg());
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        uint64_t volatile_word = 0; // DRAM attach: commit never lands
        alloc.allocOffset(*ctx, 128, &volatile_word);
        ASSERT_NE(volatile_word, 0u);
        alloc.simulateCrash();
        (void)ctx;
    }

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().after_failure);
    EXPECT_EQ(liveSmallBlocks(again), 0u) << "torn alloc leaked";
    EXPECT_GE(again.lastRecovery().wal_undos, 1u);
}

TEST(Recovery, GcVariantCollectsUnreachableBlocks)
{
    PmDevice dev(shadowCfg());
    NvAllocConfig cfg;
    cfg.consistency = Consistency::Gc;
    uint64_t reachable = 0;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, cfg);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        uint64_t *root = alloc.rootWord(0);

        // One reachable chain: root -> A -> B (offsets stored in the
        // first word of each block).
        void *a = alloc.mallocTo(*ctx, 64, root);
        reachable = *root;
        uint64_t b_off = alloc.allocOffset(*ctx, 64, nullptr);
        *static_cast<uint64_t *>(a) = b_off;
        dev.persistFence(a, 8, TimeKind::FlushData);

        // And three unreachable (leaked) blocks. The GC variant never
        // flushes small bitmaps, so force them out (as a cache
        // eviction on real hardware would) to create durable leaks.
        for (int i = 0; i < 3; ++i)
            alloc.allocOffset(*ctx, 64, nullptr);
        for (unsigned i = 0; i < alloc.numArenas(); ++i)
            alloc.arena(i).persistAllBitmaps();

        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().after_failure);
    // GC kept exactly the two reachable blocks.
    EXPECT_EQ(liveSmallBlocks(again), 2u);
    EXPECT_GE(again.lastRecovery().gc_reclaimed_blocks, 3u);
    EXPECT_EQ(*again.rootWord(0), reachable);
}

TEST(Recovery, RepeatedCrashRecoverCycles)
{
    PmDevice dev(shadowCfg());
    std::vector<uint64_t> survivors;

    for (int round = 0; round < 5; ++round) {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();

        // All previous survivors must still be intact.
        for (size_t i = 0; i < survivors.size(); ++i) {
            EXPECT_TRUE(blockIsLive(alloc, survivors[i]))
                << "round " << round << " block " << i;
        }

        // Add 50 more committed blocks, attached persistently through
        // root word 0 (we only keep the offsets).
        uint64_t *root = alloc.rootWord(0);
        for (int i = 0; i < 50; ++i) {
            alloc.mallocTo(*ctx, 64 + round * 32, root);
            survivors.push_back(*root);
        }
        alloc.simulateCrash();
    }

    auto final_alloc_h = NvAlloc::openOrDie(dev);
    NvAlloc &final_alloc = *final_alloc_h;
    EXPECT_EQ(liveSmallBlocks(final_alloc), survivors.size());
}

TEST(Recovery, LargeExtentsSurviveCrash)
{
    PmDevice dev(shadowCfg());
    uint64_t big = 0;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        alloc.mallocTo(*ctx, 512 * 1024, alloc.rootWord(0));
        big = *alloc.rootWord(0);
        std::memset(alloc.at(big), 0x77, 512 * 1024);
        dev.persistFence(alloc.at(big), 512 * 1024, TimeKind::FlushData);
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    Veh *veh = again.large().findVeh(big);
    ASSERT_NE(veh, nullptr);
    EXPECT_EQ(veh->state, Veh::State::Activated);
    auto *bytes = static_cast<unsigned char *>(again.at(big));
    EXPECT_EQ(bytes[0], 0x77);
    EXPECT_EQ(bytes[512 * 1024 - 1], 0x77);

    ThreadCtx *ctx = again.attachThread();
    again.freeFrom(*ctx, again.rootWord(0));
    again.detachThread(ctx);
}

TEST(Recovery, MorphFlagUndoneAfterCrash)
{
    // Force a slab to morph-eligibility, then crash mid-run and check
    // the slab comes back consistent (flag == 0) in every case.
    PmDevice dev(shadowCfg());
    {
        NvAllocConfig cfg;
        cfg.morph_threshold = 0.5;
        auto alloc_h = NvAlloc::openOrDie(dev, cfg);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        uint64_t *root = alloc.rootWord(0);

        // Fill a class-4 slab sparsely, then demand another class so
        // morphing kicks in.
        std::vector<uint64_t> offs;
        for (int i = 0; i < 64; ++i) {
            alloc.mallocTo(*ctx, 64, root);
            offs.push_back(*root);
        }
        for (size_t i = 0; i < offs.size(); i += 2)
            alloc.freeOffset(*ctx, offs[i], nullptr);
        // Trigger allocations of another class.
        for (int i = 0; i < 32; ++i)
            alloc.mallocTo(*ctx, 1024, root);
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    for (unsigned i = 0; i < again.numArenas(); ++i) {
        again.arena(i).forEachSlab([&](VSlab *slab) {
            EXPECT_EQ(slab->header()->flag, 0);
        });
    }
}

TEST(Recovery, EadrHeapReopensCleanWithoutAnyFlush)
{
    // On eADR the CPU caches are persistent: the heap issues no flush
    // that costs anything, and a power cut keeps every store, so the
    // heap must reopen exactly as it was.
    PmDeviceConfig cfg = shadowCfg();
    cfg.eadr = true;
    PmDevice dev(cfg);
    const size_t sizes[] = {48, 200, 1024, 4096, 128 * 1024,
                            (size_t{3} << 20)};
    std::vector<uint64_t> published;
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        for (unsigned i = 0; i < 6; ++i) {
            ASSERT_NE(alloc.mallocTo(*ctx, sizes[i], alloc.rootWord(i)),
                      nullptr);
            published.push_back(*alloc.rootWord(i));
        }
        EXPECT_EQ(dev.flushCounts().total, 0u);
        alloc.simulateCrash();
    }

    OpenResult r = NvAlloc::open(dev);
    ASSERT_EQ(r.status, NvStatus::Ok);
    NvAlloc &again = *r.heap;
    EXPECT_TRUE(again.lastRecovery().after_failure);
    AuditReport rep = HeapAuditor(again).audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    for (unsigned i = 0; i < 6; ++i) {
        uint64_t off = published[i];
        EXPECT_EQ(*again.rootWord(i), off);
        if (sizes[i] <= kSmallMax) {
            EXPECT_TRUE(blockIsLive(again, off)) << sizes[i];
        } else {
            Veh *veh = again.large().findVeh(off);
            ASSERT_NE(veh, nullptr) << sizes[i];
            EXPECT_EQ(veh->off, off);
            EXPECT_EQ(veh->state, Veh::State::Activated);
        }
    }
    EXPECT_EQ(dev.flushCounts().total, 0u);
}

TEST(Recovery, BadRegionTableWordFailsTheOpen)
{
    // The region table (layout.h) lies outside every crc. A
    // poisoned table line must fail the open, not abort recovery, after
    // a clean shutdown and after a crash alike.
    for (bool crash : {false, true}) {
        SCOPED_TRACE(crash ? "crash" : "clean shutdown");
        PmDevice dev(shadowCfg());
        {
            auto alloc_h = NvAlloc::openOrDie(dev);
            NvAlloc &alloc = *alloc_h;
            ThreadCtx *ctx = alloc.attachThread();
            ASSERT_NE(ctx, nullptr);
            ASSERT_NE(alloc.mallocTo(*ctx, 256 * 1024, alloc.rootWord(0)),
                      nullptr);
            if (crash)
                alloc.simulateCrash();
        }
        dev.poisonLine(kRegionTableOffset);

        OpenResult r = NvAlloc::open(dev);
        EXPECT_EQ(r.status, NvStatus::CorruptMetadata);
        ASSERT_NE(r.heap, nullptr);
        EXPECT_EQ(r.heap->mode(), HeapMode::Failed);
        AuditReport rep = HeapAuditor(*r.heap).audit();
        EXPECT_GT(rep.region_table_bad, 0u) << rep.summary();
        EXPECT_EQ(rep.log_chain_bad, 0u) << rep.summary();
    }
}

TEST(Recovery, CyclicLogChainEndsAtTheRevisitedChunk)
{
    // Chunk `next` words lie outside the chunk crc: a link back to an
    // adopted chunk must end replay, not loop over it forever.
    PmDevice dev(shadowCfg());
    {
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        ASSERT_NE(alloc.mallocTo(*ctx, 256 * 1024, alloc.rootWord(0)),
                  nullptr);
        auto *sb = static_cast<NvSuperblock *>(dev.root());
        auto *lh = static_cast<LogHeader *>(dev.at(sb->log_off));
        uint64_t head = lh->head[lh->alt];
        ASSERT_NE(head, 0u);
        auto *chunk = static_cast<LogChunk *>(dev.at(head));
        chunk->next = head;
        dev.persistFence(&chunk->next, 8, TimeKind::FlushLog);
        alloc.simulateCrash();
    }

    OpenResult r = NvAlloc::open(dev);
    ASSERT_EQ(r.status, NvStatus::Ok);
    NvAlloc &again = *r.heap;
    EXPECT_EQ(readCtl(again, "stats.log.replay.chunks_rejected"), 1u);
    AuditReport rep = HeapAuditor(again).audit();
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

} // namespace
} // namespace nvalloc
