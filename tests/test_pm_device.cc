/**
 * @file
 * Tests of the emulated PM device: region map/unmap with reuse and
 * coalescing, committed-byte accounting (the space metric of the
 * paper's figures), decommit/recommit, persist-to-shadow semantics,
 * crash rollback, poison healing by a flush, and the eADR device's
 * free flushes and keep-all crash.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "pm/pm_device.h"

namespace nvalloc {
namespace {

PmDeviceConfig
smallCfg(bool shadow = false)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 28;
    cfg.shadow = shadow;
    return cfg;
}

TEST(PmDevice, MapRegionsAreAlignedZeroedAndDisjoint)
{
    PmDevice dev(smallCfg());
    uint64_t a = dev.mapRegion(100 * 1024);
    uint64_t b = dev.mapRegion(64 * 1024);
    EXPECT_EQ(a % PmDevice::kRegionAlign, 0u);
    EXPECT_EQ(b % PmDevice::kRegionAlign, 0u);
    EXPECT_GE(b, a + 128 * 1024) << "rounded up to the region grain";

    auto *bytes = static_cast<unsigned char *>(dev.at(a));
    for (int i = 0; i < 1024; ++i)
        ASSERT_EQ(bytes[i], 0);
    EXPECT_GE(a, PmDevice::kRootSize) << "root area stays reserved";
}

TEST(PmDevice, UnmapReusesAndCoalesces)
{
    PmDevice dev(smallCfg());
    uint64_t a = dev.mapRegion(64 * 1024);
    uint64_t b = dev.mapRegion(64 * 1024);
    uint64_t c = dev.mapRegion(64 * 1024);
    (void)c;
    std::memset(dev.at(a), 0xff, 64 * 1024);

    dev.unmapRegion(a, 64 * 1024);
    dev.unmapRegion(b, 64 * 1024);

    // The two holes coalesce: a 128 KB request fits at `a`.
    uint64_t d = dev.mapRegion(128 * 1024);
    EXPECT_EQ(d, a);
    // And reads back zeroed, like a fresh mapping.
    auto *bytes = static_cast<unsigned char *>(dev.at(d));
    for (int i = 0; i < 64 * 1024; i += 4096)
        ASSERT_EQ(bytes[i], 0);
}

TEST(PmDevice, CommittedAccountingAndPeak)
{
    PmDevice dev(smallCfg());
    size_t base = dev.committedBytes();
    uint64_t a = dev.mapRegion(1 << 20);
    EXPECT_EQ(dev.committedBytes(), base + (1 << 20));
    uint64_t b = dev.mapRegion(1 << 20);
    size_t peak = dev.peakCommittedBytes();
    EXPECT_EQ(peak, base + (2 << 20));

    dev.unmapRegion(b, 1 << 20);
    EXPECT_EQ(dev.committedBytes(), base + (1 << 20));
    EXPECT_EQ(dev.peakCommittedBytes(), peak) << "peak sticks";

    dev.resetPeak();
    EXPECT_EQ(dev.peakCommittedBytes(), dev.committedBytes());
    dev.unmapRegion(a, 1 << 20);
}

TEST(PmDevice, DecommitReleasesBytesRecommitRestores)
{
    PmDevice dev(smallCfg());
    uint64_t a = dev.mapRegion(1 << 20);
    size_t committed = dev.committedBytes();
    std::memset(dev.at(a), 0x77, 1 << 20);

    dev.decommit(a, 1 << 20);
    EXPECT_EQ(dev.committedBytes(), committed - (1 << 20));
    dev.recommit(a, 1 << 20);
    EXPECT_EQ(dev.committedBytes(), committed);
    // Contents were dropped.
    EXPECT_EQ(static_cast<unsigned char *>(dev.at(a))[0], 0);
}

TEST(PmDevice, CrashDiscardsUnpersistedStores)
{
    PmDevice dev(smallCfg(true));
    uint64_t a = dev.mapRegion(64 * 1024);
    auto *p = static_cast<uint64_t *>(dev.at(a));

    p[0] = 111; // persisted
    dev.persistFence(&p[0], 8, TimeKind::FlushData);
    p[1] = 222; // never flushed
    p[0] = 333; // overwrites the persisted value, not flushed

    dev.crash();
    EXPECT_EQ(p[0], 111u) << "rolls back to last persisted value";
    EXPECT_EQ(p[1], 0u) << "unpersisted store lost";
}

TEST(PmDevice, PersistCoversWholeLines)
{
    PmDevice dev(smallCfg(true));
    uint64_t a = dev.mapRegion(64 * 1024);
    auto *p = static_cast<unsigned char *>(dev.at(a));
    std::memset(p, 0xab, 128);
    // Persisting one byte makes its whole 64 B line durable.
    dev.persistFence(p + 10, 1, TimeKind::FlushData);
    dev.crash();
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(p[i], 0xab);
    for (int i = 64; i < 128; ++i)
        ASSERT_EQ(p[i], 0);
}

TEST(PmDevice, FlushHealsPoisonWithoutShadow)
{
    PmDevice dev(smallCfg());
    uint64_t a = dev.mapRegion(64 * 1024);
    auto *p = static_cast<uint64_t *>(dev.at(a));
    dev.poisonLine(a);
    dev.poisonLine(a + 64);

    // With no media model a flush is durable at once, whichever call
    // issues it.
    p[0] = 1;
    dev.persist(p, 8, TimeKind::FlushData);
    EXPECT_FALSE(dev.isPoisoned(p, 8)) << "persist() heals";
    p[8] = 2;
    dev.flushLine(&p[8], TimeKind::FlushData);
    EXPECT_FALSE(dev.isPoisoned(&p[8], 8)) << "flushLine() heals";
    EXPECT_EQ(dev.poisonedLineCount(), 0u);
}

TEST(PmDevice, CrashPreservesAcrossMultipleRegions)
{
    PmDevice dev(smallCfg(true));
    std::vector<uint64_t> regions;
    for (int i = 0; i < 8; ++i) {
        uint64_t off = dev.mapRegion(64 * 1024);
        auto *p = static_cast<uint64_t *>(dev.at(off));
        p[0] = 1000 + i;
        dev.persistFence(p, 8, TimeKind::FlushData);
        p[1] = 42; // torn
        regions.push_back(off);
    }
    dev.crash();
    for (int i = 0; i < 8; ++i) {
        auto *p = static_cast<uint64_t *>(dev.at(regions[i]));
        EXPECT_EQ(p[0], uint64_t(1000 + i));
        EXPECT_EQ(p[1], 0u);
    }
}

TEST(PmDevice, EadrFlushesAreFreeAndCrashKeepsEveryStore)
{
    PmDeviceConfig cfg = smallCfg(true);
    cfg.eadr = true;
    PmDevice dev(cfg);
    ASSERT_TRUE(dev.eadr());
    uint64_t a = dev.mapRegion(64 * 1024);
    auto *p = static_cast<uint64_t *>(dev.at(a));

    // Flushes and fences are neither priced nor counted.
    VClock::reset();
    p[0] = 111;
    dev.persist(&p[0], 8, TimeKind::FlushData);
    dev.flushLine(&p[8], TimeKind::FlushMeta);
    dev.fence();
    dev.persistFence(p, 4096, TimeKind::FlushLog);
    EXPECT_EQ(VClock::now(), 0u);
    FlushClassCounts c = dev.flushCounts();
    EXPECT_EQ(c.total, 0u);
    EXPECT_EQ(c.fences, 0u);

    // The caches are persistent: a store that was never flushed
    // survives the power cut.
    p[1] = 222;
    p[0] = 333;
    dev.crash();
    EXPECT_EQ(p[0], 333u);
    EXPECT_EQ(p[1], 222u);
}

TEST(PmDevice, ContainsAndOffsetRoundtrip)
{
    PmDevice dev(smallCfg());
    uint64_t a = dev.mapRegion(64 * 1024);
    void *p = dev.at(a + 100);
    EXPECT_TRUE(dev.contains(p));
    EXPECT_EQ(dev.offsetOf(p), a + 100);
    int local;
    EXPECT_FALSE(dev.contains(&local));
}

} // namespace
} // namespace nvalloc
