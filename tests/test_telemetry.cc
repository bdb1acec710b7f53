/**
 * @file
 * Tests of the telemetry subsystem: the ctl registry, the event ring,
 * the sharded counter aggregation under concurrency, and the NvAlloc
 * integration (ctlRead, statsJson, tracing, the stats.degraded.*
 * aliases).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "nvalloc/nvalloc.h"
#include "telemetry/ctl.h"
#include "telemetry/event_ring.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace nvalloc {
namespace {

// ---------------------------------------------------------------------
// CtlRegistry.
// ---------------------------------------------------------------------

TEST(CtlRegistry, ReadAndUnknownName)
{
    CtlRegistry reg;
    reg.registerName("a.b.c", [] { return uint64_t{7}; });
    reg.registerName("a.b.d", [] { return uint64_t{9}; });

    uint64_t v = 0;
    EXPECT_EQ(reg.read("a.b.c", v), CtlStatus::Ok);
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(reg.read("a.b.d", v), CtlStatus::Ok);
    EXPECT_EQ(v, 9u);

    EXPECT_EQ(reg.read("a.b", v), CtlStatus::UnknownName)
        << "interior node is not a leaf";
    EXPECT_EQ(reg.read("a.b.e", v), CtlStatus::UnknownName);
    EXPECT_EQ(reg.read("", v), CtlStatus::UnknownName);
    EXPECT_TRUE(reg.contains("a.b.c"));
    EXPECT_FALSE(reg.contains("a.b"));
}

TEST(CtlRegistry, PrefixMatchesWholeComponents)
{
    CtlRegistry reg;
    reg.registerName("stats.flush.total", [] { return uint64_t{1}; });
    reg.registerName("stats.flushes", [] { return uint64_t{2}; });

    auto under = reg.names("stats.flush");
    ASSERT_EQ(under.size(), 1u);
    EXPECT_EQ(under[0], "stats.flush.total")
        << "\"stats.flushes\" shares the string prefix but not the "
           "component";
    EXPECT_EQ(reg.names().size(), 2u);
    EXPECT_EQ(reg.names("stats.flushes").size(), 1u)
        << "exact leaf matches its own prefix";
}

TEST(CtlRegistry, JsonNestsDottedNames)
{
    CtlRegistry reg;
    reg.registerName("s.a.x", [] { return uint64_t{1}; });
    reg.registerName("s.a.y", [] { return uint64_t{2}; });
    reg.registerName("s.b", [] { return uint64_t{3}; });
    EXPECT_EQ(reg.json(), R"({"s":{"a":{"x":1,"y":2},"b":3}})");
}

TEST(CtlRegistry, JsonFiltersByPrefix)
{
    CtlRegistry reg;
    reg.registerName("s.a.x", [] { return uint64_t{1}; });
    reg.registerName("s.a.y", [] { return uint64_t{2}; });
    reg.registerName("s.ab", [] { return uint64_t{4}; });
    reg.registerName("s.b", [] { return uint64_t{3}; });
    const char *whole = R"({"s":{"a":{"x":1,"y":2},"ab":4,"b":3}})";

    EXPECT_EQ(reg.json(""), whole) << "empty prefix: the whole tree";
    EXPECT_EQ(reg.json(), reg.json(""));
    EXPECT_EQ(reg.json("s"), whole);
    EXPECT_EQ(reg.json("s.a.y"), R"({"s":{"a":{"y":2}}})")
        << "a leaf keeps its full path";
    EXPECT_EQ(reg.json("s.a"), R"({"s":{"a":{"x":1,"y":2}}})")
        << "\"s.ab\" shares the string prefix but not the component";
    EXPECT_EQ(reg.json("s.ab"), R"({"s":{"ab":4}})");
    EXPECT_EQ(reg.json("s.c"), "{}");
    EXPECT_EQ(reg.json("s.a.x.z"), "{}");
    EXPECT_EQ(reg.json("t"), "{}");
}

// ---------------------------------------------------------------------
// EventRing.
// ---------------------------------------------------------------------

TEST(EventRing, WraparoundKeepsNewestAndCountsDropped)
{
    EventRing ring(4);
    for (uint64_t i = 0; i < 10; ++i) {
        TraceEvent e;
        e.ts = i;
        e.arg = 100 + i;
        ring.record(e);
    }
    EXPECT_EQ(ring.recorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    std::vector<TraceEvent> out;
    ring.drainInto(out);
    ASSERT_EQ(out.size(), 4u);
    for (uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i].ts, 6 + i) << "oldest surviving event first";
        EXPECT_EQ(out[i].arg, 106 + i);
    }

    ring.reset();
    EXPECT_EQ(ring.recorded(), 0u);
    out.clear();
    ring.drainInto(out);
    EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------
// Telemetry (standalone instance).
// ---------------------------------------------------------------------

TEST(Telemetry, AggregatesAcrossThreads)
{
    Telemetry tel;
    const unsigned kThreads = 8;
    const unsigned kPerThread = 1000;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&tel, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                tel.noteSmallAlloc(t % kNumSizeClasses, i % 2 == 0, i);
                tel.add(StatCounter::LogAppend);
            }
            tel.noteSmallFree(t % kNumSizeClasses, 0);
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(tel.smallAllocs(), kThreads * kPerThread);
    EXPECT_EQ(tel.total(StatCounter::LogAppend), kThreads * kPerThread);
    EXPECT_EQ(tel.tcacheHits() + tel.total(StatCounter::TcacheMiss),
              kThreads * kPerThread);
    EXPECT_EQ(tel.total(StatCounter::TcacheMiss),
              kThreads * kPerThread / 2)
        << "every other alloc was recorded as a miss";
    EXPECT_EQ(tel.smallFrees(), kThreads);
    EXPECT_EQ(tel.shardCount(), kThreads);

    uint64_t class_total = 0;
    for (unsigned c = 0; c < kNumSizeClasses; ++c)
        class_total += tel.classAllocs(c);
    EXPECT_EQ(class_total, kThreads * kPerThread);
}

TEST(Telemetry, TraceDrainMergesSortedAndCountsDrops)
{
    Telemetry tel;
    tel.startTracing(4);
    const unsigned kThreads = 4;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&tel] {
            VClock::reset();
            for (unsigned i = 0; i < 10; ++i) {
                VClock::advance(1, TimeKind::Other);
                tel.event(TraceOp::Refill, i);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    tel.stopTracing();

    std::vector<TraceEvent> events;
    uint64_t dropped = tel.drainEvents(events);
    EXPECT_EQ(events.size(), kThreads * 4u) << "ring cap per thread";
    EXPECT_EQ(dropped, kThreads * 6u);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].ts, events[i - 1].ts) << "sorted by vclock";

    // Restarting clears the drained buffers.
    tel.startTracing(4);
    tel.stopTracing();
    events.clear();
    EXPECT_EQ(tel.drainEvents(events), 0u);
    EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------
// NvAlloc integration.
// ---------------------------------------------------------------------

class TelemetryHeap : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 28;
        dev_ = std::make_unique<PmDevice>(dcfg);
        alloc_ = NvAlloc::openOrDie(*dev_);
        ctx_ = alloc_->attachThread();
        ASSERT_NE(ctx_, nullptr);
    }

    void
    TearDown() override
    {
        if (ctx_)
            alloc_->detachThread(ctx_);
        alloc_.reset();
        dev_.reset();
    }

    uint64_t
    ctl(const char *name)
    {
        uint64_t v = 0;
        EXPECT_EQ(alloc_->ctlRead(name, &v), NvStatus::Ok) << name;
        return v;
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<NvAlloc> alloc_;
    ThreadCtx *ctx_ = nullptr;
};

TEST_F(TelemetryHeap, CountersFollowTraffic)
{
    std::vector<uint64_t> offs;
    for (int i = 0; i < 100; ++i)
        offs.push_back(alloc_->allocOffset(*ctx_, 64, nullptr));
    uint64_t big = alloc_->allocOffset(*ctx_, 100 * 1024, nullptr);
    ASSERT_NE(big, 0u);

    EXPECT_EQ(ctl("stats.alloc.small"), 100u);
    EXPECT_EQ(ctl("stats.alloc.large"), 1u);
    EXPECT_EQ(ctl("stats.alloc.large_bytes"), 100u * 1024);
    EXPECT_EQ(ctl("stats.tcache.hit") + ctl("stats.tcache.miss"), 100u);
    EXPECT_EQ(ctl("stats.class.64.alloc"), 100u);
    EXPECT_EQ(ctl("stats.class.64.live"), 100u);
    EXPECT_EQ(ctl("stats.alloc.small_bytes"), 100u * 64);

    for (uint64_t off : offs)
        EXPECT_EQ(alloc_->freeOffset(*ctx_, off, nullptr), NvStatus::Ok);
    EXPECT_EQ(alloc_->freeOffset(*ctx_, big, nullptr), NvStatus::Ok);

    EXPECT_EQ(ctl("stats.free.small"), 100u);
    EXPECT_EQ(ctl("stats.free.large"), 1u);
    EXPECT_EQ(ctl("stats.class.64.live"), 0u);
    EXPECT_GT(ctl("stats.wal.commits"), 0u);
    EXPECT_GT(ctl("stats.flush.total"), 0u);
    EXPECT_GT(ctl("stats.heap.stat_shards"), 0u);
}

// The PM model's per-thread blocks are the only flush count: every
// stats.flush.* leaf is the device model's count minus the one at heap
// open, so the classes partition the total and a reopened heap counts
// only its own flushes and fences.
TEST(FlushLeaves, CountOnlyTheOpenHeapsFlushes)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);

    auto leaves = [](NvAlloc &alloc) {
        FlushClassCounts c;
        c.total = readCtl(alloc, "stats.flush.total");
        c.reflush = readCtl(alloc, "stats.flush.reflush");
        c.sequential = readCtl(alloc, "stats.flush.sequential");
        c.random = readCtl(alloc, "stats.flush.random");
        c.xpline_hit = readCtl(alloc, "stats.flush.xpline_hit");
        c.fences = readCtl(alloc, "stats.flush.fences");
        return c;
    };
    auto expectSinceOpen = [&](NvAlloc &alloc,
                               const FlushClassCounts &at_open) {
        FlushClassCounts got = leaves(alloc);
        FlushClassCounts now = dev.model().counts();
        EXPECT_EQ(got.reflush + got.sequential + got.random +
                      got.xpline_hit,
                  got.total)
            << "the class leaves partition the total";
        EXPECT_EQ(got.total, now.total - at_open.total);
        EXPECT_EQ(got.reflush, now.reflush - at_open.reflush);
        EXPECT_EQ(got.sequential, now.sequential - at_open.sequential);
        EXPECT_EQ(got.random, now.random - at_open.random);
        EXPECT_EQ(got.xpline_hit, now.xpline_hit - at_open.xpline_hit);
        EXPECT_EQ(got.fences, now.fences - at_open.fences);
        return got;
    };
    auto traffic = [](NvAlloc &alloc) {
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        std::vector<uint64_t> offs;
        for (int i = 0; i < 500; ++i)
            offs.push_back(alloc.allocOffset(*ctx, 16 + i % 200, nullptr));
        offs.push_back(alloc.allocOffset(*ctx, 100 * 1024, nullptr));
        for (uint64_t off : offs)
            EXPECT_EQ(alloc.freeOffset(*ctx, off, nullptr), NvStatus::Ok);
        alloc.detachThread(ctx);
    };

    FlushClassCounts first_open = dev.model().counts();
    {
        auto heap = NvAlloc::openOrDie(dev);
        traffic(*heap);
        FlushClassCounts got = expectSinceOpen(*heap, first_open);
        EXPECT_GT(got.total, 0u);
        EXPECT_GT(got.fences, 0u);
    }

    // A clean close and a reopen on the same device: the new heap's
    // leaves start from what the device had counted by then.
    FlushClassCounts reopen = dev.model().counts();
    ASSERT_GT(reopen.fences, first_open.fences);
    {
        auto heap = NvAlloc::openOrDie(dev);
        FlushClassCounts opened = expectSinceOpen(*heap, reopen);
        traffic(*heap);
        FlushClassCounts got = expectSinceOpen(*heap, reopen);
        EXPECT_GT(got.total, opened.total);
        EXPECT_GT(got.fences, opened.fences);
        EXPECT_LT(got.fences, dev.model().counts().fences)
            << "the first heap's fences are not this heap's";
    }
}

// stats.degraded.media_late_bookings is the model's media-server count
// of late bookings minus the one at heap open, like the flush leaves.
// A miss is late when an earlier miss booked the same ring slot a whole
// ring (512 windows of 200 µs) later in virtual time.
TEST(MediaLateBookings, CountOnlyTheOpenHeapsLateBookings)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    constexpr uint64_t kRingNs = 512 * 200'000;
    uint64_t from_end = 0;
    auto lateMiss = [&](uint64_t at) {
        // Fresh XPLines at the device's far end: both flushes miss.
        VClock::setNow(at + kRingNs);
        dev.flushLine(dev.base() + dev.size() - (from_end += 4096),
                      TimeKind::FlushMeta);
        VClock::setNow(at);
        dev.flushLine(dev.base() + dev.size() - (from_end += 4096),
                      TimeKind::FlushMeta);
    };
    VClock::reset();
    lateMiss(0);
    ASSERT_EQ(dev.model().mediaLateBookings(), 1u);

    auto heap = NvAlloc::openOrDie(dev);
    EXPECT_EQ(readCtl(*heap, "stats.degraded.media_late_bookings"), 0u)
        << "the late miss before the open is not this heap's";
    lateMiss(VClock::now());
    EXPECT_EQ(dev.model().mediaLateBookings(), 2u);
    EXPECT_EQ(readCtl(*heap, "stats.degraded.media_late_bookings"), 1u);
}

TEST_F(TelemetryHeap, LargeGaugesFollowExtents)
{
    const uint64_t kSize = 300 * 1024;
    uint64_t big = alloc_->allocOffset(*ctx_, kSize, nullptr);
    ASSERT_NE(big, 0u);
    EXPECT_GE(ctl("stats.large.activated_bytes"), kSize);
    EXPECT_GE(ctl("stats.large.region_slots_used"), 1u);
    EXPECT_EQ(ctl("stats.large.region_slots_total"), 448u);

    // A freed extent is free space again, whole.
    ASSERT_EQ(alloc_->freeOffset(*ctx_, big, nullptr), NvStatus::Ok);
    EXPECT_GE(ctl("stats.large.largest_free_extent"), kSize);
    EXPECT_GE(ctl("stats.large.reclaimed_bytes") +
                  ctl("stats.large.retained_bytes"),
              kSize);
}

TEST_F(TelemetryHeap, UnknownCtlNameIsAnError)
{
    uint64_t v = 0;
    EXPECT_EQ(alloc_->ctlRead("stats.no.such.name", &v),
              NvStatus::UnknownCtl);
    EXPECT_EQ(alloc_->ctlRead("", &v), NvStatus::UnknownCtl);
    // The family root is interior, not a leaf.
    EXPECT_EQ(alloc_->ctlRead("stats.alloc", &v), NvStatus::UnknownCtl);
}

TEST_F(TelemetryHeap, DegradedStatsReachTheSnapshot)
{
    // A free of a never-allocated offset is rejected and counted once;
    // the degradation machine's name reads the same shard counter.
    EXPECT_NE(alloc_->freeOffset(*ctx_, 0x1234, nullptr), NvStatus::Ok);
    EXPECT_EQ(ctl("stats.degraded.invalid_frees"), 1u);
    EXPECT_EQ(ctl("stats.free.invalid"), 1u);

    std::string json = alloc_->statsJson();
    EXPECT_NE(json.find("\"degraded\":{"), std::string::npos);
    EXPECT_NE(json.find("\"invalid_frees\":1"), std::string::npos);
    EXPECT_NE(json.find("\"mode\":{"), std::string::npos);
}

TEST_F(TelemetryHeap, SecondNamesReadTheOneCount)
{
    std::vector<uint64_t> offs;
    for (int i = 0; i < 200; ++i)
        offs.push_back(alloc_->allocOffset(*ctx_, 16 + 16 * (i % 8),
                                           nullptr));
    EXPECT_EQ(alloc_->allocOffset(*ctx_, 0, nullptr), 0u);
    for (uint64_t off : offs)
        EXPECT_EQ(alloc_->freeOffset(*ctx_, off, nullptr), NvStatus::Ok);

    // A failure is counted once, under its reason; the total and the
    // degradation machine's name sum the family.
    EXPECT_EQ(ctl("stats.alloc.failed_by.invalid_argument"), 1u);
    EXPECT_EQ(ctl("stats.alloc.failed"), 1u);
    EXPECT_EQ(ctl("stats.degraded.failed_allocs"), 1u);

    // A refill is counted once, on its arena.
    uint64_t refills = 0;
    for (unsigned i = 0; i < alloc_->numArenas(); ++i)
        refills += alloc_->arena(i).stats().refills;
    EXPECT_GT(refills, 0u);
    EXPECT_EQ(ctl("stats.slab.refills"), refills);
    EXPECT_EQ(ctl("stats.fastpath.refill_searches"), refills);

    // Every retired plain free passed the validator.
    EXPECT_EQ(ctl("stats.hardening.validated_frees"), 200u);
    EXPECT_EQ(ctl("stats.free.small"), 200u);
}

TEST_F(TelemetryHeap, ModeTransitionsAreCounted)
{
    // Fill the device with 32 MB extents until one cannot be placed:
    // the failing request drives the reclaim slow path and leaves the
    // heap Exhausted...
    const size_t kChunk = 32 * 1024 * 1024;
    unsigned served = 0;
    while (alloc_->allocOffset(*ctx_, kChunk, nullptr) != 0)
        ++served;
    ASSERT_GT(served, 0u);
    ASSERT_LT(served, 100u) << "256 MB device must fill up";
    EXPECT_EQ(ctl("stats.alloc.failed"), 1u);
    EXPECT_GE(ctl("stats.mode.to_reclaiming"), 1u);
    EXPECT_EQ(ctl("stats.mode.to_exhausted"), 1u);
    EXPECT_EQ(ctl("stats.mode.current"),
              uint64_t(HeapMode::Exhausted));

    // ...and the next success returns it to Normal.
    uint64_t off = alloc_->allocOffset(*ctx_, 64, nullptr);
    ASSERT_NE(off, 0u);
    EXPECT_EQ(ctl("stats.mode.to_normal"), 1u);
    EXPECT_EQ(ctl("stats.mode.current"), uint64_t(HeapMode::Normal));
}

TEST_F(TelemetryHeap, TracingCapturesAllocFlow)
{
    alloc_->telemetry().startTracing(8);
    std::vector<uint64_t> offs;
    for (int i = 0; i < 20; ++i)
        offs.push_back(alloc_->allocOffset(*ctx_, 128, nullptr));
    for (uint64_t off : offs)
        alloc_->freeOffset(*ctx_, off, nullptr);
    alloc_->telemetry().stopTracing();

    std::vector<TraceEvent> events;
    uint64_t dropped = alloc_->telemetry().drainEvents(events);
    EXPECT_EQ(events.size(), 8u) << "ring capacity bounds the dump";
    EXPECT_GT(dropped, 0u) << "40 ops through an 8-slot ring";
    for (const TraceEvent &e : events) {
        EXPECT_TRUE(e.op == TraceOp::Alloc || e.op == TraceOp::Free ||
                    e.op == TraceOp::Refill || e.op == TraceOp::Morph);
    }
}

// The ctl tree is the only exporter of per-subsystem counters, so
// every tx, fast-path, hardening, health/scrub and KV value the tools
// report must be a leaf. Not leaves by design: KV max_chain (a walk
// of the volatile index, KvStore::maxChain()) and the pool's own
// counters (HeapPool::stats()).
TEST(CtlSnapshot, CoversEveryRetiredEmitterField)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    NvAllocConfig cfg;
    cfg.guard_sample_rate = 1; // every small allocation is a guard
    auto alloc = NvAlloc::openOrDie(dev, cfg);
    ThreadCtx *ctx = alloc->attachThread();
    ASSERT_NE(ctx, nullptr);
    auto read = [&](const std::string &name) {
        uint64_t v = 0;
        EXPECT_EQ(alloc->ctlRead(name.c_str(), &v), NvStatus::Ok) << name;
        return v;
    };

    uint64_t off = alloc->allocOffset(*ctx, 64, nullptr);
    ASSERT_NE(off, 0u);
    EXPECT_EQ(read("stats.hardening.guard_allocs"), 1u);
    EXPECT_EQ(read("stats.hardening.guard_live"), 1u);
    EXPECT_EQ(read("stats.hardening.guard_watched"), 0u);
    ASSERT_EQ(alloc->freeOffset(*ctx, off, nullptr), NvStatus::Ok);
    EXPECT_EQ(read("stats.hardening.guard_live"), 0u);
    EXPECT_EQ(read("stats.hardening.guard_watched"), 1u);
    EXPECT_EQ(read("stats.health.state"), uint64_t(HeapHealth::Serving));

    const std::pair<const char *, std::vector<const char *>> kFamilies[] = {
        {"stats.tx.",
         {"begins", "commits", "aborts", "ops_alloc", "ops_free",
          "ops_write", "rejected", "oversize", "plain_ops_rejected",
          "recovered_committed", "recovered_rolled_back", "open",
          "staged_blocks"}},
        {"stats.fastpath.",
         {"reserve_hits", "reserve_misses", "cas_retries",
          "region_steals", "refill_searches", "locked_fallbacks"}},
        {"stats.hardening.",
         {"validated_frees", "double_frees", "misaligned_frees",
          "wild_frees", "cross_heap_frees", "canary_stomps",
          "tx_staged_frees", "guard_allocs", "guard_frees",
          "guard_overflows", "guard_uaf", "guard_live", "guard_watched",
          "quarantine_pushes", "quarantine_evictions", "quarantine_uaf",
          "quarantine_depth", "leaked_blocks", "reports"}},
        {"stats.health.",
         {"state", "escalations", "restores", "rejected_ops"}},
        {"stats.scrub.",
         {"slices", "items", "findings", "repaired", "retries", "passes"}},
        {"stats.kv.",
         {"records", "buckets", "key_bytes", "value_bytes", "inserts",
          "updates", "erases", "gets", "hits", "misses", "scans", "rmws",
          "corrupt_records", "rejected_unhealthy", "rejected_quota",
          "rebuilds", "rebuilt_records"}},
    };
    size_t fields = 0;
    for (const auto &[prefix, leaves] : kFamilies) {
        for (const char *leaf : leaves) {
            read(std::string(prefix) + leaf);
            ++fields;
        }
    }
    EXPECT_EQ(fields, 13u + 6u + 19u + 4u + 6u + 17u);
    alloc->detachThread(ctx);
}

// ctl readers only load atomics or take a short mutex (DESIGN.md §7):
// a snapshot taken while other threads churn slabs, morphs, refills
// and regions must not race them. Run under TSan to prove it.
TEST(CtlSnapshot, ReadsWhileThreadsChurn)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    auto alloc = NvAlloc::openOrDie(dev);

    auto churn = [&](unsigned seed) {
        ThreadCtx *ctx = alloc->attachThread();
        ASSERT_NE(ctx, nullptr);
        std::vector<uint64_t> live;
        for (unsigned round = 0; round < 8; ++round) {
            size_t small = size_t{16} << ((round + seed) % 6);
            for (unsigned i = 0; i < 1500; ++i)
                live.push_back(alloc->allocOffset(*ctx, small, nullptr));
            for (unsigned i = 0; i < 4; ++i) {
                live.push_back(alloc->allocOffset(
                    *ctx, size_t{64 + 32 * i} << 10, nullptr));
            }
            for (uint64_t off : live)
                EXPECT_EQ(alloc->freeOffset(*ctx, off, nullptr),
                          NvStatus::Ok);
            live.clear();
        }
        alloc->detachThread(ctx);
    };
    std::atomic<bool> done{false};
    unsigned snapshots = 0;
    std::thread reader([&] {
        do {
            EXPECT_FALSE(alloc->statsJson().empty());
            ++snapshots;
        } while (!done.load());
    });
    std::thread a(churn, 0), b(churn, 3);
    a.join();
    b.join();
    done.store(true);
    reader.join();
    EXPECT_GT(snapshots, 0u);
    EXPECT_GT(readCtl(*alloc, "stats.slab.created"), 0u);
    EXPECT_GT(readCtl(*alloc, "stats.heap.peak_committed_bytes"), 0u);
}

TEST_F(TelemetryHeap, EveryRegisteredNameIsReadable)
{
    // Walk the whole tree through the public read path; this is the
    // same sweep the nvalloc_stat CLI default mode performs.
    size_t n = 0;
    for (const std::string &name : alloc_->ctl().names()) {
        uint64_t v = 0;
        EXPECT_EQ(alloc_->ctlRead(name.c_str(), &v), NvStatus::Ok)
            << name;
        ++n;
    }
    EXPECT_GT(n, 100u) << "counter families registered";
    EXPECT_EQ(n, alloc_->ctl().size());
}

} // namespace
} // namespace nvalloc
