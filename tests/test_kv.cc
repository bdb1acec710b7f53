/**
 * @file
 * KV service tests (DESIGN.md §13): the KvStore surface (put/get/
 * erase/rmw/scan, rebuild-on-open, checksum containment, quarantine
 * routing), the YCSB generator machinery (seeded determinism and
 * distribution shape), the C veneer's error contracts on degraded and
 * quota-bound pool tenants — and the centerpiece, two crash-mid-
 * workload proofs:
 *
 *  - an every-flush-point sweep of a deterministic KV op mix whose
 *    oracle knows exactly which ops completed before the crash: every
 *    acked op must survive recovery bit-exact, the single in-flight
 *    op must resolve all-or-nothing (old state or new state, never a
 *    mix), and nothing else may change;
 *
 *  - seeded crash points inside a real multithreaded ycsbRun, where
 *    the recovered heap must audit clean, pass the store's full
 *    checksum verify, and still hold every load-phase key.
 *
 * Both honour NVALLOC_MAINTENANCE=off|manual|thread and
 * NVALLOC_HARDENING=full like the tx sweep, so the CI legs prove the
 * KV protocol under a racing maintenance worker and full hardening.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kv/kv_c.h"
#include "kv/kv_store.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "test_util.h"
#include "workloads/ycsb.h"

namespace nvalloc {
namespace {

uint64_t
ctlValue(NvAlloc &alloc, const char *name)
{
    uint64_t v = ~uint64_t{0};
    EXPECT_EQ(alloc.ctlRead(name, &v), NvStatus::Ok) << name;
    return v;
}

// ---------------------------------------------------------------------
// Generator machinery: seeded determinism and distribution shape
// ---------------------------------------------------------------------

TEST(YcsbGenerator, ZipfianIsDeterministicForASeed)
{
    ZipfianGenerator gen(100'000, 0.99);
    Rng a(1234), b(1234), c(999);
    bool diverged = false;
    for (int i = 0; i < 4096; ++i) {
        uint64_t ra = gen.next(a);
        ASSERT_EQ(ra, gen.next(b)) << "same seed diverged at " << i;
        if (ra != gen.next(c))
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "different seeds produced one stream";
}

TEST(YcsbGenerator, ZipfianRanksInBoundsAndSkewed)
{
    constexpr uint64_t kItems = 1000;
    constexpr int kDraws = 200'000;
    ZipfianGenerator gen(kItems, 0.99);
    Rng rng(42);
    std::vector<uint32_t> hist(kItems, 0);
    for (int i = 0; i < kDraws; ++i) {
        uint64_t r = gen.next(rng);
        ASSERT_LT(r, kItems);
        ++hist[r];
    }
    // Rank 0 of a theta=0.99 zipfian over 1000 items carries ~13% of
    // the mass (1/zeta_0.99(1000)); uniform would be 0.1%. Loose
    // bounds — this is a shape check, not a statistics exam.
    double head = double(hist[0]) / kDraws;
    EXPECT_GT(head, 0.08) << "head rank not hot: " << head;
    EXPECT_LT(head, 0.25) << "head rank implausibly hot: " << head;
    // Monotone-ish decay: the first decile outweighs the last.
    uint64_t first = 0, last = 0;
    for (int i = 0; i < 100; ++i) {
        first += hist[i];
        last += hist[kItems - 100 + i];
    }
    EXPECT_GT(first, last * 10);
}

TEST(YcsbGenerator, SkewGrowsWithTheta)
{
    constexpr uint64_t kItems = 1000;
    constexpr int kDraws = 100'000;
    auto headMass = [&](double theta) {
        ZipfianGenerator gen(kItems, theta);
        Rng rng(7);
        int head = 0;
        for (int i = 0; i < kDraws; ++i)
            if (gen.next(rng) < 10)
                ++head;
        return double(head) / kDraws;
    };
    double flat = headMass(0.5), steep = headMass(0.99);
    EXPECT_GT(steep, flat * 1.5)
        << "theta 0.99 head mass " << steep << " vs 0.5's " << flat;
}

TEST(YcsbGenerator, KeysAndValuesAreDeterministicAndDistinct)
{
    EXPECT_EQ(ycsbKey(17), ycsbKey(17));
    EXPECT_NE(ycsbKey(17), ycsbKey(18));
    EXPECT_EQ(ycsbKey(0).compare(0, 4, "user"), 0);
    std::string v = ycsbValue(5, 3, 96);
    EXPECT_EQ(v.size(), 96u);
    EXPECT_EQ(v, ycsbValue(5, 3, 96));
    EXPECT_NE(v, ycsbValue(5, 4, 96));
    EXPECT_NE(v, ycsbValue(6, 3, 96));
}

// ---------------------------------------------------------------------
// KvStore functional surface
// ---------------------------------------------------------------------

class KvFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 28;
        dcfg.shadow = true;
        dev_ = std::make_unique<PmDevice>(dcfg);
        alloc_ = NvAlloc::openOrDie(*dev_, envConfig());
        ctx_ = alloc_->attachThread();
        ASSERT_NE(ctx_, nullptr);
        KvOptions ko;
        ko.buckets = 256;
        KvStatus why;
        store_ = KvStore::open(*alloc_, ko, &why);
        ASSERT_NE(store_, nullptr) << kvStatusName(why);
    }

    void
    TearDown() override
    {
        store_.reset();
        if (ctx_ && alloc_)
            alloc_->detachThread(ctx_);
        alloc_.reset();
    }

    std::unique_ptr<PmDevice> dev_;
    std::unique_ptr<NvAlloc> alloc_;
    ThreadCtx *ctx_ = nullptr;
    std::unique_ptr<KvStore> store_;
};

TEST_F(KvFixture, PutGetUpdateErase)
{
    EXPECT_EQ(store_->put(*ctx_, "alpha", "one"), KvStatus::Ok);
    EXPECT_EQ(store_->put(*ctx_, "beta", "two"), KvStatus::Ok);
    EXPECT_EQ(store_->count(), 2u);

    std::string v;
    EXPECT_EQ(store_->get("alpha", &v), KvStatus::Ok);
    EXPECT_EQ(v, "one");
    EXPECT_EQ(store_->get("gamma", &v), KvStatus::NotFound);

    // Replace: same key, new value, count unchanged.
    EXPECT_EQ(store_->put(*ctx_, "alpha", "ONE-REPLACED"),
              KvStatus::Ok);
    EXPECT_EQ(store_->count(), 2u);
    EXPECT_EQ(store_->get("alpha", &v), KvStatus::Ok);
    EXPECT_EQ(v, "ONE-REPLACED");

    EXPECT_EQ(store_->erase(*ctx_, "alpha"), KvStatus::Ok);
    EXPECT_EQ(store_->get("alpha", &v), KvStatus::NotFound);
    EXPECT_EQ(store_->erase(*ctx_, "alpha"), KvStatus::NotFound);
    EXPECT_EQ(store_->count(), 1u);
    EXPECT_EQ(store_->verify(), KvStatus::Ok);
}

TEST_F(KvFixture, LargeAndEmptyValues)
{
    std::string big(256 * 1024, 'x');
    for (size_t i = 0; i < big.size(); i += 7)
        big[i] = char('a' + i % 26);
    EXPECT_EQ(store_->put(*ctx_, "big", big), KvStatus::Ok);
    EXPECT_EQ(store_->put(*ctx_, "empty", ""), KvStatus::Ok);

    std::string v;
    ASSERT_EQ(store_->get("big", &v), KvStatus::Ok);
    EXPECT_EQ(v, big);
    ASSERT_EQ(store_->get("empty", &v), KvStatus::Ok);
    EXPECT_EQ(v, "");

    // Shrink a large record to a small one and back.
    EXPECT_EQ(store_->put(*ctx_, "big", "tiny"), KvStatus::Ok);
    ASSERT_EQ(store_->get("big", &v), KvStatus::Ok);
    EXPECT_EQ(v, "tiny");
    EXPECT_EQ(store_->verify(), KvStatus::Ok);
}

TEST_F(KvFixture, FormatLimitsRejected)
{
    std::string long_key(KvStore::kMaxKeyLen + 1, 'k');
    EXPECT_EQ(store_->put(*ctx_, long_key, "v"), KvStatus::TooLarge);
    EXPECT_EQ(store_->put(*ctx_, "", "v"), KvStatus::Invalid);
    // Reads refuse an over-limit key outright (it can never have been
    // stored), symmetric with the put-side rejection.
    std::string v;
    EXPECT_EQ(store_->get(long_key, &v), KvStatus::TooLarge);
}

TEST_F(KvFixture, RmwUpsertsAndMutates)
{
    auto append_x = [](std::string_view old) {
        return std::string(old) + "x";
    };
    EXPECT_EQ(store_->rmw(*ctx_, "ctr", append_x), KvStatus::Ok);
    EXPECT_EQ(store_->rmw(*ctx_, "ctr", append_x), KvStatus::Ok);
    EXPECT_EQ(store_->rmw(*ctx_, "ctr", append_x), KvStatus::Ok);
    std::string v;
    ASSERT_EQ(store_->get("ctr", &v), KvStatus::Ok);
    EXPECT_EQ(v, "xxx");
}

TEST_F(KvFixture, ScanCollectsRecords)
{
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(store_->put(*ctx_, ycsbKey(i), ycsbValue(i, 0, 32)),
                  KvStatus::Ok);
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_EQ(store_->scan(ycsbKey(0), 10, &out), KvStatus::Ok);
    EXPECT_EQ(out.size(), 10u);
    for (auto &kv : out) {
        std::string v;
        EXPECT_EQ(store_->get(kv.first, &v), KvStatus::Ok);
        EXPECT_EQ(v, kv.second);
    }
    // A scan asking for more than exists returns everything.
    out.clear();
    EXPECT_EQ(store_->scan(ycsbKey(1), 1000, &out), KvStatus::Ok);
    EXPECT_EQ(out.size(), 64u);
}

TEST_F(KvFixture, ReopenRebuildsTheVolatileIndex)
{
    constexpr int kN = 200;
    for (int i = 0; i < kN; ++i) {
        uint32_t len = (i % 13 == 0) ? 20000 : 48 + i % 200;
        ASSERT_EQ(store_->put(*ctx_, ycsbKey(i), ycsbValue(i, 0, len)),
                  KvStatus::Ok);
    }
    ASSERT_EQ(store_->erase(*ctx_, ycsbKey(3)), KvStatus::Ok);
    store_.reset();

    KvStatus why;
    store_ = KvStore::open(*alloc_, KvOptions{}, &why);
    ASSERT_NE(store_, nullptr) << kvStatusName(why);
    EXPECT_EQ(store_->count(), uint64_t(kN - 1));
    EXPECT_EQ(store_->stats().rebuilds.load(), 1u);
    EXPECT_EQ(store_->stats().rebuilt_records.load(),
              uint64_t(kN - 1));
    std::string v;
    for (int i = 0; i < kN; ++i) {
        uint32_t len = (i % 13 == 0) ? 20000 : 48 + i % 200;
        if (i == 3) {
            EXPECT_EQ(store_->get(ycsbKey(i), &v), KvStatus::NotFound);
        } else {
            ASSERT_EQ(store_->get(ycsbKey(i), &v), KvStatus::Ok) << i;
            EXPECT_EQ(v, ycsbValue(i, 0, len)) << i;
        }
    }
}

TEST_F(KvFixture, CorruptRecordContainedNotFatal)
{
    ASSERT_EQ(store_->put(*ctx_, "victim", "payload-payload-payload"),
              KvStatus::Ok);
    ASSERT_EQ(store_->put(*ctx_, "bystander", "fine"), KvStatus::Ok);
    uint64_t roff = store_->recordOffset("victim");
    ASSERT_NE(roff, 0u);

    auto *p = static_cast<unsigned char *>(
        dev_->at(roff + KvStore::kRecordHeader + 6 /* klen */ + 4));
    unsigned char saved = *p;
    *p ^= 0xff;

    std::string v;
    EXPECT_EQ(store_->get("victim", &v), KvStatus::Corrupt);
    EXPECT_GE(store_->stats().corrupt_records.load(), 1u);
    EXPECT_EQ(store_->get("bystander", &v), KvStatus::Ok);
    EXPECT_EQ(store_->verify(), KvStatus::Corrupt);
    // The KV layer contains payload damage record-granularly; the
    // heap's health machine is not involved.
    EXPECT_EQ(alloc_->health(), HeapHealth::Serving);

    *p = saved;
    EXPECT_EQ(store_->get("victim", &v), KvStatus::Ok);
    EXPECT_EQ(store_->verify(), KvStatus::Ok);
}

TEST_F(KvFixture, StatsCtlSubtreeFollowsTraffic)
{
    ASSERT_EQ(store_->put(*ctx_, "a", "1"), KvStatus::Ok);
    ASSERT_EQ(store_->put(*ctx_, "b", "2"), KvStatus::Ok);
    ASSERT_EQ(store_->put(*ctx_, "a", "3"), KvStatus::Ok);
    std::string v;
    ASSERT_EQ(store_->get("a", &v), KvStatus::Ok);
    ASSERT_EQ(store_->get("nope", &v), KvStatus::NotFound);
    ASSERT_EQ(store_->erase(*ctx_, "b"), KvStatus::Ok);

    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.inserts"), 2u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.updates"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.erases"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.gets"), 2u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.hits"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.misses"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.records"), 1u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.buckets"), 256u);

    // Detach on destruction: the subtree stays readable, all zero.
    store_.reset();
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.inserts"), 0u);
    EXPECT_EQ(ctlValue(*alloc_, "stats.kv.records"), 0u);
}

// ---------------------------------------------------------------------
// Rebuild parity: the sliced chain walk counts what a serial walk does
// ---------------------------------------------------------------------

/** The leading fields of the persistent record header (kv_store.cc). */
struct RecordHead
{
    uint64_t next;
    uint32_t vlen;
    uint16_t klen;
    uint16_t flags;
};

/**
 * Fill a store of `buckets` buckets, break the checksums of the head
 * records of the two buckets either side of the first slice edge and
 * the header of one lone record (klen = 0), reopen, and check every
 * rebuilt total against what the live store counted.
 */
void
checkRebuildParity(uint64_t buckets)
{
    SCOPED_TRACE(buckets);
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    PmDevice dev(dcfg);
    auto heap = NvAlloc::openOrDie(dev, envConfig());
    ThreadCtx *ctx = heap->attachThread();
    ASSERT_NE(ctx, nullptr);
    KvOptions ko;
    ko.buckets = buckets;
    auto store = KvStore::open(*heap, ko);
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->buckets(), buckets);
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        uint32_t len = i % 500 == 0 ? 16384 : 48 + i % 100;
        ASSERT_EQ(store->put(*ctx, ycsbKey(i), ycsbValue(i, 0, len)),
                  KvStatus::Ok);
    }

    // The walker's worker rule; with one worker there is no slice
    // edge, and the middle of the table stands in for it.
    const uint64_t workers = KvStore::walkers(buckets);
    const uint64_t edge = workers > 1 ? buckets / workers : buckets / 2;
    // The super block's table_off field (kv_store.cc) locates the table.
    const uint64_t table = *static_cast<const uint64_t *>(
        heap->at(*heap->rootWord(0) + 16));
    auto head = [&](uint64_t b) {
        return *static_cast<const uint64_t *>(heap->at(table + b * 8));
    };
    for (uint64_t b : {edge - 1, edge}) {
        for (int i = kN; head(b) == 0; ++i) {
            std::string key = ycsbKey(i);
            if (store->bucketWordOffset(key) == table + b * 8) {
                ASSERT_EQ(store->put(*ctx, key, "pinned"), KvStatus::Ok);
            }
        }
    }
    uint64_t lone = 0;
    for (uint64_t b = 0; b < buckets && lone == 0; ++b) {
        uint64_t off = head(b);
        if (off && b != edge - 1 && b != edge &&
            static_cast<const RecordHead *>(heap->at(off))->next == 0)
            lone = off;
    }
    ASSERT_NE(lone, 0u);

    const uint64_t records = store->count();
    const uint64_t max_chain = store->maxChain();
    uint64_t key_bytes = store->stats().key_bytes.load();
    uint64_t value_bytes = store->stats().value_bytes.load();
    ASSERT_GE(max_chain, 2u);

    // A header that fails the sanity check ends its chain's walk: the
    // lone record no longer counts, in records, bytes or chain length.
    auto *lh = static_cast<RecordHead *>(heap->at(lone));
    const uint16_t lone_klen = lh->klen;
    key_bytes -= lh->klen;
    value_bytes -= lh->vlen;
    lh->klen = 0;
    // A checksum mismatch is counted, and the record still is.
    unsigned char *key0[2];
    for (unsigned i = 0; i < 2; ++i) {
        key0[i] = static_cast<unsigned char *>(
            heap->at(head(edge - 1 + i) + KvStore::kRecordHeader));
        *key0[i] ^= 0xff;
    }

    store.reset();
    ko.create = false;
    store = KvStore::open(*heap, ko);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->count(), records - 1);
    EXPECT_EQ(store->stats().rebuilds.load(), 1u);
    EXPECT_EQ(store->stats().rebuilt_records.load(), records - 1);
    EXPECT_EQ(store->stats().key_bytes.load(), key_bytes);
    EXPECT_EQ(store->stats().value_bytes.load(), value_bytes);
    EXPECT_EQ(store->stats().corrupt_records.load(), 3u);
    EXPECT_EQ(store->maxChain(), max_chain);

    EXPECT_EQ(store->verify(), KvStatus::Corrupt);
    EXPECT_EQ(store->stats().corrupt_records.load(), 6u);
    lh->klen = lone_klen;
    for (unsigned char *k : key0)
        *k ^= 0xff;
    EXPECT_EQ(store->verify(), KvStatus::Ok);
    EXPECT_EQ(store->stats().corrupt_records.load(), 6u);
    store.reset();
    heap->detachThread(ctx);
}

TEST(KvRebuild, SlicedWalkMatchesTheSerialTotals)
{
    // 2^15 buckets: eight slices, or one per CPU the thread may use.
    checkRebuildParity(uint64_t{1} << 15);
}

TEST(KvRebuild, OneWorkerBelowTheFloorMatchesTheSameTotals)
{
    // 2^12 buckets: below two slices' worth, so the caller walks alone.
    checkRebuildParity(uint64_t{1} << 12);
}

TEST(KvRebuild, WorkerCountFollowsTheAffinityMask)
{
    // Pinned to one CPU, the thread starts no walker beside itself,
    // however many CPUs the host has.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const uint64_t pinned = KvStore::walkers(uint64_t{1} << 20);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(KvStore::walkers(uint64_t{1} << 20),
              std::min<uint64_t>(CPU_COUNT(&saved), 8));
}

TEST(KvOpen, GcVariantAndOccupiedRootRefused)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    {
        PmDevice dev(dcfg);
        NvAllocConfig cfg;
        cfg.consistency = Consistency::Gc;
        auto alloc_h = NvAlloc::openOrDie(dev, cfg);
        NvAlloc &alloc = *alloc_h;
        KvStatus why;
        EXPECT_EQ(KvStore::open(alloc, KvOptions{}, &why), nullptr);
        EXPECT_EQ(why, KvStatus::Invalid);
    }
    {
        PmDevice dev(dcfg);
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        ASSERT_NE(ctx, nullptr);
        // Root word 0 already anchors something that is not a super.
        // From the store's side that is indistinguishable from a
        // corrupted super block, so the refusal reports Corrupt.
        uint64_t off = alloc.allocOffset(*ctx, 512, alloc.rootWord(0));
        ASSERT_NE(off, 0u);
        KvStatus why;
        EXPECT_EQ(KvStore::open(alloc, KvOptions{}, &why), nullptr);
        EXPECT_EQ(why, KvStatus::Corrupt);
        alloc.detachThread(ctx);
    }
}

// ---------------------------------------------------------------------
// Hardening integration: erase routes through the delayed-reuse
// quarantine, and reading after erase never trips the UAF detector
// (readers hold the stripe lock, so they can't reach a freed record).
// ---------------------------------------------------------------------

TEST(KvHardening, EraseRoutesThroughQuarantineWithoutUaf)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);
    NvAllocConfig cfg;
    cfg.redzone_canaries = true;
    cfg.quarantine_depth = 16;
    // Morphing-eligible (low-occupancy) slabs bypass the quarantine in
    // favour of the morph pipeline — same rule as the plain free path.
    // A handful of records never fills a slab past the threshold, so
    // pin morphing off to observe the quarantine routing itself.
    cfg.slab_morphing = false;
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);
    KvOptions ko;
    ko.buckets = 64;
    auto store = KvStore::open(alloc, ko);
    ASSERT_NE(store, nullptr);

    uint64_t pushes0 =
        ctlValue(alloc, "stats.hardening.quarantine_pushes");
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(store->put(*ctx, ycsbKey(i), ycsbValue(i, 0, 64)),
                  KvStatus::Ok);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(store->erase(*ctx, ycsbKey(i)), KvStatus::Ok);
    EXPECT_GE(ctlValue(alloc, "stats.hardening.quarantine_pushes"),
              pushes0 + 8);

    // Erase-then-read: the freed (possibly poison-filled) records
    // must be unreachable, not misread.
    std::string v;
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(store->get(ycsbKey(i), &v), KvStatus::NotFound);
    alloc.hardening().drainQuarantine();
    EXPECT_EQ(ctlValue(alloc, "stats.hardening.quarantine_uaf"), 0u);
    EXPECT_EQ(alloc.health(), HeapHealth::Serving);
    store.reset();
    alloc.detachThread(ctx);
}

// ---------------------------------------------------------------------
// Error contracts: degraded tenants and capacity quotas
// ---------------------------------------------------------------------

TEST(KvContracts, DegradedHeapRefusesOps)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);
    NvAllocConfig cfg;
    cfg.fault_containment = true;
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);
    auto store = KvStore::open(alloc, KvOptions{});
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->put(*ctx, "k", "v"), KvStatus::Ok);

    alloc.escalateHealth(HeapHealth::Degraded, "test injection");
    std::string v;
    EXPECT_EQ(store->put(*ctx, "k2", "v"), KvStatus::HeapUnhealthy);
    EXPECT_EQ(store->get("k", &v), KvStatus::HeapUnhealthy);
    EXPECT_EQ(store->erase(*ctx, "k"), KvStatus::HeapUnhealthy);
    EXPECT_GE(store->stats().rejected_unhealthy.load(), 3u);
    store.reset();
    alloc.detachThread(ctx);
}

TEST(KvContracts, QuotaExceededIsNotAnAbort)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);
    NvAllocConfig cfg;
    cfg.fault_containment = true;
    cfg.capacity_quota_bytes = uint64_t{1} << 18; // 256 KB
    auto alloc_h = NvAlloc::openOrDie(dev, cfg);
    NvAlloc &alloc = *alloc_h;
    ThreadCtx *ctx = alloc.attachThread();
    ASSERT_NE(ctx, nullptr);
    KvOptions ko;
    ko.buckets = 64;
    auto store = KvStore::open(alloc, ko);
    ASSERT_NE(store, nullptr);

    // Seed one small record first: it activates the small-class slab
    // while the quota still has headroom. (A slab is itself an extent,
    // so a *first* small put after exhaustion would be quota-charged.)
    ASSERT_EQ(store->put(*ctx, "warm", "x"), KvStatus::Ok);

    // 16 KB values ride the extent path, where the quota is enforced.
    std::string big(16 * 1024, 'q');
    KvStatus st = KvStatus::Ok;
    int landed = 0;
    for (int i = 0; i < 64 && st == KvStatus::Ok; ++i) {
        st = store->put(*ctx, ycsbKey(i), big);
        if (st == KvStatus::Ok)
            ++landed;
    }
    ASSERT_EQ(st, KvStatus::QuotaExceeded)
        << "quota never tripped after " << landed << " inserts";
    EXPECT_GE(store->stats().rejected_quota.load(), 1u);

    // Not an abort: the heap stays Serving, existing data stays
    // readable, and small traffic keeps working.
    EXPECT_EQ(alloc.health(), HeapHealth::Serving);
    std::string v;
    ASSERT_GE(landed, 1);
    EXPECT_EQ(store->get(ycsbKey(0), &v), KvStatus::Ok);
    EXPECT_EQ(v, big);
    EXPECT_EQ(store->put(*ctx, "small", "fits"), KvStatus::Ok);
    EXPECT_EQ(store->get("small", &v), KvStatus::Ok);
    EXPECT_EQ(store->verify(), KvStatus::Ok);
    store.reset();
    alloc.detachThread(ctx);
}

TEST(KvCApi, RoundTripAndErrnoContracts)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);

    NvKv *kv = nullptr;
    ASSERT_EQ(nvalloc_kv_open(&dev, "tenant-a", nullptr, 128, &kv),
              NVALLOC_OK);
    ASSERT_NE(kv, nullptr);

    EXPECT_EQ(nvalloc_kv_put(kv, "key", 3, "value", 5), NVALLOC_OK);
    char buf[16];
    size_t len = 0;
    EXPECT_EQ(nvalloc_kv_get(kv, "key", 3, buf, sizeof buf, &len),
              NVALLOC_OK);
    ASSERT_EQ(len, 5u);
    EXPECT_EQ(std::memcmp(buf, "value", 5), 0);
    // Size probe with a null buffer.
    len = 0;
    EXPECT_EQ(nvalloc_kv_get(kv, "key", 3, nullptr, 0, &len),
              NVALLOC_OK);
    EXPECT_EQ(len, 5u);
    EXPECT_EQ(nvalloc_kv_get(kv, "nope", 4, buf, sizeof buf, &len),
              NVALLOC_ENOENT);
    EXPECT_EQ(nvalloc_kv_count(kv), 1u);
    EXPECT_EQ(nvalloc_kv_erase(kv, "key", 3), NVALLOC_OK);
    EXPECT_EQ(nvalloc_kv_erase(kv, "key", 3), NVALLOC_ENOENT);

    // Degraded tenant: ops return EINVAL per the documented contract
    // (HeapUnhealthy is a caller error, not new corruption).
    NvInstance *inst = nvalloc_kv_instance(kv);
    ASSERT_NE(inst, nullptr);
    nvalloc_impl(inst)->escalateHealth(HeapHealth::Degraded,
                                       "test injection");
    EXPECT_EQ(nvalloc_kv_put(kv, "k2", 2, "v", 1), NVALLOC_EINVAL);
    EXPECT_EQ(nvalloc_kv_get(kv, "k2", 2, buf, sizeof buf, &len),
              NVALLOC_EINVAL);
    nvalloc_kv_close(kv);
}

TEST(KvCApi, QuotaBoundTenantReportsEnomem)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);
    nvalloc_options opts;
    nvalloc_options_init(&opts);
    opts.capacity_quota_bytes = uint64_t{1} << 18;

    NvKv *kv = nullptr;
    ASSERT_EQ(nvalloc_kv_open(&dev, "tenant-q", &opts, 64, &kv),
              NVALLOC_OK);
    // Activate the small-class slab before exhausting the quota (a
    // first small put afterwards would need a quota-charged extent).
    EXPECT_EQ(nvalloc_kv_put(kv, "warm", 4, "x", 1), NVALLOC_OK);
    std::string big(16 * 1024, 'q');
    int rc = NVALLOC_OK;
    for (int i = 0; i < 64 && rc == NVALLOC_OK; ++i) {
        std::string key = ycsbKey(i);
        rc = nvalloc_kv_put(kv, key.data(), key.size(), big.data(),
                            big.size());
    }
    EXPECT_EQ(rc, NVALLOC_ENOMEM);
    // Quota rejection is not an abort: small traffic keeps working.
    EXPECT_EQ(nvalloc_kv_put(kv, "small", 5, "v", 1), NVALLOC_OK);
    nvalloc_kv_close(kv);
}

// ---------------------------------------------------------------------
// YCSB driver: functional pass over every mix, and t=1 determinism
// ---------------------------------------------------------------------

YcsbSpec
smallSpec(YcsbWorkload w, unsigned threads)
{
    YcsbSpec spec;
    spec.workload = w;
    spec.record_count = 2000;
    spec.op_count = 2000;
    spec.threads = threads;
    spec.large_value_every = 128;
    spec.large_value_size = 4096;
    spec.seed = 42;
    return spec;
}

TEST(Ycsb, EveryWorkloadRunsCleanly)
{
    for (int wi = 0; wi < 6; ++wi) {
        YcsbWorkload w = YcsbWorkload(wi);
        SCOPED_TRACE(ycsbWorkloadName(w));
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 29;
        PmDevice dev(dcfg);
        auto alloc_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &alloc = *alloc_h;
        KvOptions ko;
        ko.buckets = 2048;
        auto store = KvStore::open(alloc, ko);
        ASSERT_NE(store, nullptr);

        YcsbSpec spec = smallSpec(w, 2);
        VtimeEpoch epoch;
        YcsbResult load = ycsbLoad(*store, spec, epoch);
        EXPECT_EQ(load.errors, 0u);
        EXPECT_EQ(load.inserts, spec.record_count);
        EXPECT_EQ(store->count(), spec.record_count);

        std::atomic<uint64_t> inserted{spec.record_count};
        YcsbResult run = ycsbRun(*store, spec, epoch, inserted);
        EXPECT_EQ(run.errors, 0u);
        uint64_t total = run.reads + run.updates + run.inserts +
                         run.scans + run.rmws;
        EXPECT_EQ(total, spec.op_count);
        switch (w) {
        case YcsbWorkload::C:
            EXPECT_EQ(run.reads, spec.op_count);
            break;
        case YcsbWorkload::E:
            EXPECT_GT(run.scans, spec.op_count / 2);
            EXPECT_GT(run.inserts, 0u);
            break;
        case YcsbWorkload::F:
            EXPECT_GT(run.rmws, spec.op_count / 3);
            break;
        default:
            EXPECT_GT(run.reads, 0u);
            break;
        }
        EXPECT_EQ(store->verify(), KvStatus::Ok);
    }
}

TEST(Ycsb, SingleThreadRunIsDeterministic)
{
    auto counters = [](uint64_t seed) {
        PmDeviceConfig dcfg;
        dcfg.size = size_t{1} << 29;
        PmDevice dev(dcfg);
        auto alloc_h = NvAlloc::openOrDie(dev);
        NvAlloc &alloc = *alloc_h;
        KvOptions ko;
        ko.buckets = 2048;
        auto store = KvStore::open(alloc, ko);
        YcsbSpec spec = smallSpec(YcsbWorkload::A, 1);
        spec.seed = seed;
        VtimeEpoch epoch;
        ycsbLoad(*store, spec, epoch);
        std::atomic<uint64_t> inserted{spec.record_count};
        YcsbResult r = ycsbRun(*store, spec, epoch, inserted);
        return std::vector<uint64_t>{r.reads, r.updates, r.inserts,
                                     r.scans, r.rmws, r.not_found};
    };
    EXPECT_EQ(counters(7), counters(7));
    EXPECT_NE(counters(7), counters(8));
}

// ---------------------------------------------------------------------
// Crash-mid-workload, proof 1: an every-flush-point sweep over a
// deterministic KV op mix with an exact completed-op oracle.
// ---------------------------------------------------------------------

constexpr uint64_t kSweepRecords = 48;

uint32_t
sweepValueLen(uint64_t id, uint64_t version)
{
    // Every 7th id is a large (extent-path) record on even versions:
    // the crash points then cover slab, extent and mixed commits.
    if (id % 7 == 0 && version % 2 == 0)
        return 4096;
    return uint32_t(48 + (id * 31 + version * 17) % 160);
}

std::string
sweepValue(uint64_t id, uint64_t version)
{
    return ycsbValue(id, version, sweepValueLen(id, version));
}

struct SweepOp
{
    enum class Kind { Read, Update, Insert, Erase } kind = Kind::Read;
    uint64_t id = 0;
    uint64_t version = 0; //!< version written (update/insert)
};

/**
 * One crash point: load kSweepRecords records, arm the crash at the
 * nth run-phase flush, execute a deterministic update/insert/erase/
 * read mix, stopping at the first op that observes the crash as
 * triggered. Every op completed strictly before the trigger is fully
 * persisted (all of its flushes landed) and must survive recovery
 * bit-exact; the one in-flight op must resolve all-or-nothing.
 *
 * Returns true if the armed crash triggered (more points remain).
 */
bool
runKvCrashPoint(unsigned nth)
{
    SCOPED_TRACE(::testing::Message() << "flush=" << nth);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    // Durable oracle: id -> latest acked version. Maintained only for
    // ops that completed before the crash triggered.
    std::map<uint64_t, uint64_t> oracle;
    bool has_inflight = false;
    SweepOp inflight;
    uint64_t next_id = kSweepRecords;
    bool triggered = false;

    {
        auto alloc_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        if (ctx == nullptr) {
            ADD_FAILURE() << "attach failed during setup";
            return false;
        }
        KvOptions ko;
        ko.buckets = 64;
        KvStatus why;
        auto store = KvStore::open(alloc, ko, &why);
        if (store == nullptr) {
            ADD_FAILURE() << "kv open failed: " << kvStatusName(why);
            return false;
        }
        for (uint64_t id = 0; id < kSweepRecords; ++id) {
            if (store->put(*ctx, ycsbKey(id), sweepValue(id, 0)) !=
                KvStatus::Ok) {
                ADD_FAILURE() << "load failed at id " << id;
                return false;
            }
            oracle[id] = 0;
        }

        // Arm after the load: nth indexes into the run mix only.
        dev.armCrashAtFlush(nth);

        // The op stream is a pure function of the fixed seed and the
        // oracle state, so every sweep point replays the same ops.
        Rng rng(0x5eed + 20260809);
        std::map<uint64_t, uint64_t> versions = oracle; //!< volatile
        constexpr unsigned kOps = 40;
        for (unsigned i = 0; i < kOps; ++i) {
            unsigned r = unsigned(rng.nextBounded(100));
            SweepOp op;
            auto pick = [&]() -> uint64_t {
                // Deterministic pick from the (ordered) live set.
                auto it = versions.begin();
                std::advance(it, rng.nextBounded(versions.size()));
                return it->first;
            };
            if (versions.empty() || r < 40) {
                if (versions.empty()) {
                    op = {SweepOp::Kind::Insert, next_id, 0};
                } else {
                    uint64_t id = pick();
                    op = {SweepOp::Kind::Update, id,
                          versions[id] + 1};
                }
            } else if (r < 60) {
                op = {SweepOp::Kind::Insert, next_id, 0};
            } else if (r < 75) {
                op = {SweepOp::Kind::Erase, pick(), 0};
            } else {
                op = {SweepOp::Kind::Read, pick(), 0};
            }

            KvStatus st = KvStatus::Ok;
            std::string v;
            switch (op.kind) {
            case SweepOp::Kind::Update:
            case SweepOp::Kind::Insert:
                st = store->put(*ctx, ycsbKey(op.id),
                                sweepValue(op.id, op.version));
                break;
            case SweepOp::Kind::Erase:
                st = store->erase(*ctx, ycsbKey(op.id));
                break;
            case SweepOp::Kind::Read:
                st = store->get(ycsbKey(op.id), &v);
                break;
            }
            EXPECT_EQ(st, KvStatus::Ok)
                << "op " << i << " kind " << int(op.kind) << " id "
                << op.id << ": " << kvStatusName(st);

            // Track volatile state for the pick()s...
            switch (op.kind) {
            case SweepOp::Kind::Update:
            case SweepOp::Kind::Insert:
                versions[op.id] = op.version;
                if (op.kind == SweepOp::Kind::Insert)
                    ++next_id;
                break;
            case SweepOp::Kind::Erase:
                versions.erase(op.id);
                break;
            case SweepOp::Kind::Read:
                break;
            }
            // ...and the durable oracle only for pre-crash acks.
            if (!dev.crashTriggered()) {
                if (op.kind == SweepOp::Kind::Erase)
                    oracle.erase(op.id);
                else if (op.kind != SweepOp::Kind::Read)
                    oracle[op.id] = op.version;
            } else {
                if (op.kind != SweepOp::Kind::Read) {
                    has_inflight = true;
                    inflight = op;
                }
                break; // stop at the crash: exactly one in-flight op
            }
        }
        triggered = dev.crashTriggered();
        store.reset();
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, envConfig());
    NvAlloc &again = *again_h;
    EXPECT_TRUE(again.lastRecovery().performed);
    KvStatus why;
    auto store = KvStore::open(again, KvOptions{}, &why);
    if (store == nullptr) {
        ADD_FAILURE() << "reopen failed: " << kvStatusName(why);
        return triggered;
    }

    AuditReport audit = HeapAuditor(again).audit();
    EXPECT_EQ(audit.violations(), 0u) << audit.summary();
    EXPECT_EQ(store->verify(), KvStatus::Ok);

    // Every acked op survived bit-exact; the in-flight op resolved
    // all-or-nothing. Check the in-flight key first, then the rest.
    uint64_t expect_count = oracle.size();
    std::string v;
    if (has_inflight) {
        KvStatus st = store->get(ycsbKey(inflight.id), &v);
        auto old_it = oracle.find(inflight.id);
        bool old_present = old_it != oracle.end();
        std::string old_v =
            old_present ? sweepValue(inflight.id, old_it->second)
                        : std::string();
        std::string new_v = sweepValue(inflight.id, inflight.version);
        bool is_new = false;
        switch (inflight.kind) {
        case SweepOp::Kind::Insert:
            EXPECT_TRUE((st == KvStatus::NotFound) ||
                        (st == KvStatus::Ok && v == new_v))
                << "in-flight insert torn: " << kvStatusName(st);
            is_new = st == KvStatus::Ok;
            if (is_new)
                ++expect_count;
            break;
        case SweepOp::Kind::Update:
            EXPECT_EQ(st, KvStatus::Ok)
                << "in-flight update lost the key";
            if (st == KvStatus::Ok) {
                EXPECT_TRUE(v == old_v || v == new_v)
                    << "in-flight update torn";
            }
            break;
        case SweepOp::Kind::Erase:
            EXPECT_TRUE((st == KvStatus::NotFound) ||
                        (st == KvStatus::Ok && v == old_v))
                << "in-flight erase torn: " << kvStatusName(st);
            if (st == KvStatus::NotFound)
                --expect_count;
            break;
        case SweepOp::Kind::Read:
            break;
        }
    }
    for (const auto &[id, version] : oracle) {
        if (has_inflight && id == inflight.id)
            continue;
        KvStatus st = store->get(ycsbKey(id), &v);
        EXPECT_EQ(st, KvStatus::Ok) << "acked op lost: id " << id;
        if (st == KvStatus::Ok) {
            EXPECT_EQ(v, sweepValue(id, version)) << "id " << id;
        }
    }
    // Nothing invented: ids never durably inserted stay absent
    // (except a visible in-flight insert, handled above).
    for (uint64_t id = kSweepRecords; id < next_id + 2; ++id) {
        if (oracle.count(id))
            continue;
        if (has_inflight && id == inflight.id)
            continue;
        EXPECT_EQ(store->get(ycsbKey(id), &v), KvStatus::NotFound)
            << "unacked insert visible: id " << id;
    }
    EXPECT_EQ(store->count(), expect_count);

    // Usability probe: the recovered store serves fresh traffic.
    ThreadCtx *ctx = again.attachThread();
    if (ctx != nullptr) {
        EXPECT_EQ(store->put(*ctx, "probe", "alive"), KvStatus::Ok);
        EXPECT_EQ(store->get("probe", &v), KvStatus::Ok);
        EXPECT_EQ(v, "alive");
        again.detachThread(ctx);
    } else {
        ADD_FAILURE() << "recovered heap refused an attach";
    }
    return triggered;
}

TEST(KvCrashSweep, AllOrNothingAtEveryFlushPoint)
{
    constexpr unsigned kCap = 3000; // far above the mix's flush count
    unsigned nth = 1;
    for (; nth <= kCap; ++nth) {
        if (!runKvCrashPoint(nth))
            break;
        if (::testing::Test::HasFailure())
            return; // the SCOPED_TRACE already names the point
    }
    ASSERT_LE(nth, kCap) << "sweep never ran out of flush points";
    RecordProperty("crash_points", int(nth));
}

// ---------------------------------------------------------------------
// Crash-mid-workload, proof 2: seeded crash points inside a real
// multithreaded ycsbRun.
// ---------------------------------------------------------------------

/** Crash a 4-thread YCSB run at the nth run-phase flush; returns
 *  whether the crash triggered. */
bool
runYcsbCrashPoint(YcsbWorkload w, unsigned nth)
{
    SCOPED_TRACE(::testing::Message()
                 << ycsbWorkloadName(w) << " flush=" << nth);

    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    YcsbSpec spec = smallSpec(w, 4);
    spec.record_count = 1500;
    spec.op_count = 1500;
    bool triggered = false;
    {
        auto alloc_h = NvAlloc::openOrDie(dev, envConfig());
        NvAlloc &alloc = *alloc_h;
        KvOptions ko;
        ko.buckets = 1024;
        auto store = KvStore::open(alloc, ko);
        if (store == nullptr) {
            ADD_FAILURE() << "kv open failed";
            return false;
        }
        VtimeEpoch epoch;
        YcsbResult load = ycsbLoad(*store, spec, epoch);
        if (load.errors != 0 || load.inserts != spec.record_count) {
            ADD_FAILURE() << "load failed";
            return false;
        }
        dev.armCrashAtFlush(nth);
        std::atomic<uint64_t> inserted{spec.record_count};
        ycsbRun(*store, spec, epoch, inserted);
        triggered = dev.crashTriggered();
        store.reset();
        alloc.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev, envConfig());
    NvAlloc &again = *again_h;
    KvStatus why;
    auto store = KvStore::open(again, KvOptions{}, &why);
    if (store == nullptr) {
        ADD_FAILURE() << "reopen failed: " << kvStatusName(why);
        return triggered;
    }
    AuditReport audit = HeapAuditor(again).audit();
    EXPECT_EQ(audit.violations(), 0u) << audit.summary();
    EXPECT_EQ(store->verify(), KvStatus::Ok);

    // Neither A (update-only) nor D (insert-only) ever erases, so
    // every load-phase key is a committed insert that must survive.
    std::string v;
    uint64_t missing = 0;
    for (uint64_t id = 0; id < spec.record_count; ++id)
        if (store->get(ycsbKey(id), &v) != KvStatus::Ok)
            ++missing;
    EXPECT_EQ(missing, 0u) << "committed inserts lost";
    EXPECT_GE(store->count(), spec.record_count);
    return triggered;
}

class YcsbCrash : public ::testing::TestWithParam<int>
{
};

TEST_P(YcsbCrash, RecoversAtSeededPoints)
{
    YcsbWorkload w = YcsbWorkload(GetParam());
    // Geometric spread of crash points through the run phase; a point
    // beyond the workload's flush count ends the walk.
    for (unsigned nth = 1; nth <= 50'000; nth = nth * 3 + 2) {
        if (!runYcsbCrashPoint(w, nth))
            break;
        if (::testing::Test::HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(UpdateAndInsertMixes, YcsbCrash,
                         ::testing::Values(int(YcsbWorkload::A),
                                           int(YcsbWorkload::D)),
                         [](const auto &info) {
                             return std::string(ycsbWorkloadName(
                                 YcsbWorkload(info.param)));
                         });

} // namespace
} // namespace nvalloc
