/**
 * @file
 * Unit and property tests of the common substrate: RNG, smootherstep,
 * size classes, bitmap helpers, the intrusive LRU list, the intrusive
 * red-black tree (validated against std::multimap with invariant
 * checks), the radix tree (validated against std::map), and the CRC-32C
 * kernels behind every persistent checksum.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/bitmap_ops.h"
#include "common/checksum.h"
#include "common/lru_list.h"
#include "common/radix_tree.h"
#include "common/rbtree.h"
#include "common/rng.h"
#include "common/size_classes.h"
#include "common/smootherstep.h"
#include "kv/kv_store.h"
#include "nvalloc/layout.h"
#include "pm/pm_device.h"

namespace nvalloc {
namespace {

// ---- CRC-32C ----------------------------------------------------------

TEST(Crc32c, CheckValue)
{
    // The catalogued check value of CRC-32C (iSCSI, RFC 3720).
    EXPECT_EQ(crc32("123456789", 9), 0xE3069283u);
    EXPECT_EQ(detail::crc32cByTable("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32c, HardwareKernelMatchesTable)
{
#ifdef NVALLOC_CRC32C_SSE42
    if (!detail::kCrc32cUseSse42)
        GTEST_SKIP() << "CPU lacks SSE4.2";
    std::vector<uint8_t> buf(16384 + 8);
    Rng rng(19);
    for (auto &b : buf)
        b = uint8_t(rng.next());
    // Every start offset within a word, so the 8-, 4- and 1-byte steps
    // all run on unaligned loads.
    for (size_t start = 0; start < 8; ++start) {
        const uint8_t *p = buf.data() + start;
        for (size_t len = 0; len <= 4096; ++len)
            ASSERT_EQ(detail::crc32cBySse42(p, len),
                      detail::crc32cByTable(p, len))
                << "start " << start << " len " << len;
        ASSERT_EQ(detail::crc32cBySse42(p, 16384),
                  detail::crc32cByTable(p, 16384))
            << "start " << start;
    }
#else
    GTEST_SKIP() << "no hardware CRC-32C kernel on this architecture";
#endif
}

/**
 * Checksums of fixed on-media structures, computed before the hardware
 * kernel existed. Any kernel change that would orphan existing heaps
 * fails here; with HardwareKernelMatchesTable, the values hold for
 * both kernels.
 */
TEST(Crc32c, GoldenOnMediaValues)
{
    WalEntry e;
    std::memset(&e, 0, sizeof(e));
    e.block_op = 0x0000123456789000ull | kWalAlloc;
    e.seq = 42;
    e.where_off = 0x4000;
    e.size = 64;
    e.tx_id = 7;
    e.tx_mark = kWalTxOp;
    EXPECT_EQ(walEntryCrc(e), 0x24b53090u);

    EXPECT_EQ(slabGeometryCrc(5, 1024, 6), 0x79f81a33u);

    LogChunk c;
    std::memset(&c, 0, sizeof(c));
    c.id = 3;
    c.active = 1;
    EXPECT_EQ(logChunkCrc(c), 0x8a299f5bu);

    LogHeader h;
    std::memset(&h, 0, sizeof(h));
    h.magic = kLogMagic;
    h.num_chunks = 17;
    EXPECT_EQ(logHeaderCrc(h), 0xbed2affdu);

    NvSuperblock sb;
    std::memset(&sb, 0, sizeof(sb));
    sb.magic = kSuperMagic;
    sb.version = 3;
    sb.num_arenas = 4;
    sb.stripes = 6;
    sb.log_off = 0x100000;
    sb.log_bytes = 4 << 20;
    sb.wal_off = 0x80000;
    EXPECT_EQ(superblockCrc(sb), 0x865d3fd4u);
}

TEST(Crc32c, GoldenKvRecordValue)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27;
    PmDevice dev(dcfg);
    auto alloc = NvAlloc::openOrDie(dev, NvAllocConfig{});
    ThreadCtx *ctx = alloc->attachThread();
    ASSERT_NE(ctx, nullptr);
    KvOptions ko;
    ko.buckets = 64;
    auto store = KvStore::open(*alloc, ko);
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->put(*ctx, "golden-key", "golden-value-0123456789"),
              KvStatus::Ok);
    uint64_t off = store->recordOffset("golden-key");
    ASSERT_NE(off, 0u);
    // The record header's crc word: next(8) + vlen(4) + klen(2) +
    // flags(2), then crc(4).
    uint32_t crc = 0;
    std::memcpy(&crc, static_cast<const char *>(store->heap().at(off)) + 16,
                sizeof(crc));
    EXPECT_EQ(crc, 0x5ced1ffbu);
    store.reset();
    alloc->detachThread(ctx);
}

// ---- Rng ------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7), c(8);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        differs |= va != c.next();
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = rng.uniform(100, 150);
        ASSERT_GE(v, 100u);
        ASSERT_LE(v, 150u);
    }
}

TEST(Rng, UniformCoversRange)
{
    Rng rng(4);
    std::set<uint64_t> seen;
    for (int i = 0; i < 5000; ++i)
        seen.insert(rng.uniform(0, 9));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, PoissonMeanRoughlyCorrect)
{
    Rng rng(6);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += double(rng.poisson(6.5));
    EXPECT_NEAR(sum / 20000, 6.5, 0.2);
}

// ---- smootherstep ----------------------------------------------------

TEST(Smootherstep, EndpointsAndMonotonicity)
{
    EXPECT_DOUBLE_EQ(smootherstep(0.0), 0.0);
    EXPECT_DOUBLE_EQ(smootherstep(1.0), 1.0);
    EXPECT_DOUBLE_EQ(smootherstep(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(smootherstep(2.0), 1.0);
    double prev = 0.0;
    for (int i = 1; i <= 100; ++i) {
        double v = smootherstep(i / 100.0);
        ASSERT_GE(v, prev);
        prev = v;
    }
    EXPECT_NEAR(smootherstep(0.5), 0.5, 1e-12); // odd symmetry
}

TEST(Smootherstep, DecayLimitFractionFallsToZero)
{
    EXPECT_DOUBLE_EQ(decayLimitFraction(0, 100), 1.0);
    EXPECT_DOUBLE_EQ(decayLimitFraction(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(decayLimitFraction(1000, 100), 0.0);
    EXPECT_GT(decayLimitFraction(25, 100), decayLimitFraction(75, 100));
}

// ---- size classes ----------------------------------------------------

TEST(SizeClasses, EveryClassFitsItsRange)
{
    for (unsigned c = 0; c < kNumSizeClasses; ++c) {
        size_t size = classToSize(c);
        EXPECT_EQ(sizeToClass(size), c);
        if (c > 0) {
            EXPECT_EQ(sizeToClass(classToSize(c - 1) + 1), c);
        }
    }
}

TEST(SizeClasses, MonotoneAndBounded)
{
    for (unsigned c = 1; c < kNumSizeClasses; ++c)
        EXPECT_GT(classToSize(c), classToSize(c - 1));
    EXPECT_EQ(classToSize(kNumSizeClasses - 1), kSmallMax);
}

TEST(SizeClasses, InternalFragmentationBounded)
{
    // jemalloc-style spacing: waste < 25% beyond the linear region.
    for (size_t size = 129; size <= kSmallMax; size += 97) {
        size_t block = classToSize(sizeToClass(size));
        EXPECT_GE(block, size);
        EXPECT_LE(double(block - size) / double(size), 0.25) << size;
    }
}

// ---- bitmap ops -------------------------------------------------------

TEST(BitmapOps, SetClearTestRoundtrip)
{
    uint64_t words[4] = {};
    for (size_t bit : {0u, 1u, 63u, 64u, 127u, 255u}) {
        EXPECT_FALSE(bitmapTest(words, bit));
        bitmapSet(words, bit);
        EXPECT_TRUE(bitmapTest(words, bit));
        bitmapClear(words, bit);
        EXPECT_FALSE(bitmapTest(words, bit));
    }
}

TEST(BitmapOps, FindFirstZeroSkipsFullWords)
{
    uint64_t words[3] = {~uint64_t{0}, ~uint64_t{0}, 0};
    EXPECT_EQ(bitmapFindFirstZero(words, 192), 128u);
    bitmapClear(words, 70);
    EXPECT_EQ(bitmapFindFirstZero(words, 192), 70u);
    // No zero below the limit.
    uint64_t full[1] = {~uint64_t{0}};
    EXPECT_EQ(bitmapFindFirstZero(full, 64), 64u);
}

TEST(BitmapOps, FindFirstZeroRespectsLimit)
{
    uint64_t words[1] = {~uint64_t{0} >> 4}; // bits 60..63 clear
    EXPECT_EQ(bitmapFindFirstZero(words, 60), 60u) << "limit clips";
    EXPECT_EQ(bitmapFindFirstZero(words, 64), 60u);
}

TEST(BitmapOps, PopcountMatchesManualCount)
{
    Rng rng(11);
    uint64_t words[8] = {};
    unsigned expected = 0;
    for (int i = 0; i < 200; ++i) {
        size_t bit = rng.nextBounded(512);
        if (!bitmapTest(words, bit)) {
            bitmapSet(words, bit);
            if (bit < 300)
                ++expected;
        }
    }
    EXPECT_EQ(bitmapPopcount(words, 300), expected);
}

// ---- LruList ----------------------------------------------------------

struct Item
{
    int id;
    LruLink link;
};

TEST(LruList, OrderAndTouch)
{
    NVALLOC_LRU_LIST(Item, link) list;
    Item a{1, {}}, b{2, {}}, c{3, {}};
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.front()->id, 1);

    list.touch(&a); // a becomes MRU
    EXPECT_EQ(list.front()->id, 2);

    EXPECT_EQ(list.popFront()->id, 2);
    EXPECT_EQ(list.popFront()->id, 3);
    EXPECT_EQ(list.popFront()->id, 1);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(LruList, IterationAndRemove)
{
    NVALLOC_LRU_LIST(Item, link) list;
    std::vector<Item> items(10);
    for (int i = 0; i < 10; ++i) {
        items[i].id = i;
        list.pushBack(&items[i]);
    }
    list.remove(&items[4]);
    list.remove(&items[9]);
    std::vector<int> order;
    for (Item *it = list.front(); it; it = list.next(it))
        order.push_back(it->id);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}));
    EXPECT_FALSE(items[4].link.linked());
}

// ---- RbTree ------------------------------------------------------------

struct Node
{
    int payload;
    RbNode rb;
};

using Tree = RbTree<Node, offsetof(Node, rb)>;

TEST(RbTree, InsertFindEraseSmoke)
{
    Tree tree;
    Node n1{1, {}}, n2{2, {}}, n3{3, {}};
    tree.insert(&n1, 50);
    tree.insert(&n2, 30);
    tree.insert(&n3, 70);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree.find(30), &n2);
    EXPECT_EQ(tree.find(31), nullptr);
    EXPECT_EQ(tree.lowerBound(40), &n1);
    EXPECT_EQ(tree.lowerBound(71), nullptr);
    EXPECT_EQ(tree.upperBoundBelow(40), &n2);
    tree.checkInvariants();
    tree.erase(&n1);
    EXPECT_EQ(tree.lowerBound(40), &n3);
    tree.checkInvariants();
}

TEST(RbTree, RandomOpsMatchMultimapWithInvariants)
{
    Tree tree;
    std::multimap<uint64_t, Node *> model;
    std::vector<std::unique_ptr<Node>> pool;
    Rng rng(13);

    for (int step = 0; step < 4000; ++step) {
        if (model.empty() || rng.nextDouble() < 0.55) {
            auto node = std::make_unique<Node>();
            uint64_t key = rng.nextBounded(500);
            tree.insert(node.get(), key);
            model.emplace(key, node.get());
            pool.push_back(std::move(node));
        } else {
            auto it = model.begin();
            std::advance(it, long(rng.nextBounded(model.size())));
            tree.erase(it->second);
            model.erase(it);
        }
        if (step % 64 == 0)
            tree.checkInvariants();
        ASSERT_EQ(tree.size(), model.size());
    }
    tree.checkInvariants();

    // Ordered iteration agrees with the model.
    std::vector<uint64_t> keys;
    for (Node *n = tree.first(); n; n = tree.next(n))
        keys.push_back(Tree::nodeOf(n)->key);
    std::vector<uint64_t> expect;
    for (auto &[k, v] : model)
        expect.push_back(k);
    EXPECT_EQ(keys, expect);

    // lowerBound agrees for probes.
    for (uint64_t probe = 0; probe < 500; probe += 7) {
        Node *got = tree.lowerBound(probe);
        auto it = model.lower_bound(probe);
        if (it == model.end())
            EXPECT_EQ(got, nullptr);
        else
            EXPECT_EQ(Tree::nodeOf(got)->key, it->first);
    }
}

TEST(RbTree, DuplicateKeys)
{
    Tree tree;
    std::vector<std::unique_ptr<Node>> pool;
    for (int i = 0; i < 100; ++i) {
        auto n = std::make_unique<Node>();
        tree.insert(n.get(), 42);
        pool.push_back(std::move(n));
    }
    EXPECT_EQ(tree.size(), 100u);
    tree.checkInvariants();
    for (int i = 0; i < 100; ++i) {
        Node *n = tree.find(42);
        ASSERT_NE(n, nullptr);
        tree.erase(n);
    }
    EXPECT_TRUE(tree.empty());
}

// ---- RadixTree ---------------------------------------------------------

TEST(RadixTree, SetGetAndRangeSemantics)
{
    RadixTree tree;
    int a, b;
    tree.set(0, &a);
    EXPECT_EQ(tree.get(0), &a);
    EXPECT_EQ(tree.get(4095), &a) << "page granularity";
    EXPECT_EQ(tree.get(4096), nullptr);

    tree.setRange(64 * 1024, 64 * 1024, &b);
    EXPECT_EQ(tree.get(64 * 1024), &b);
    EXPECT_EQ(tree.get(128 * 1024 - 1), &b);
    EXPECT_EQ(tree.get(128 * 1024), nullptr);

    tree.setRange(64 * 1024, 64 * 1024, nullptr);
    EXPECT_EQ(tree.get(64 * 1024), nullptr);
}

TEST(RadixTree, RandomRangesMatchModel)
{
    RadixTree tree;
    std::map<uint64_t, void *> model; // page -> value
    Rng rng(17);
    std::vector<int> values(64);

    for (int step = 0; step < 2000; ++step) {
        uint64_t page = rng.nextBounded(1 << 14);
        uint64_t pages = 1 + rng.nextBounded(16);
        void *v = rng.nextDouble() < 0.2
                      ? nullptr
                      : &values[rng.nextBounded(values.size())];
        tree.setRange(page << 12, pages << 12, v);
        for (uint64_t p = page; p < page + pages; ++p) {
            if (v)
                model[p] = v;
            else
                model.erase(p);
        }
    }
    for (uint64_t p = 0; p < (1 << 14) + 16; ++p) {
        auto it = model.find(p);
        EXPECT_EQ(tree.get(p << 12),
                  it == model.end() ? nullptr : it->second)
            << p;
    }
}

TEST(RadixTree, ConcurrentReadersDuringWrites)
{
    RadixTree tree;
    static int value;
    std::atomic<bool> stop{false};

    std::thread writer([&] {
        for (int round = 0; round < 200; ++round) {
            tree.setRange(uint64_t(round) << 16, 1 << 16, &value);
            tree.setRange(uint64_t(round) << 16, 1 << 16, nullptr);
        }
        stop = true;
    });
    std::thread reader([&] {
        while (!stop) {
            for (int round = 0; round < 200; ++round) {
                void *v = tree.get(uint64_t(round) << 16);
                ASSERT_TRUE(v == nullptr || v == &value);
            }
        }
    });
    writer.join();
    reader.join();
}

} // namespace
} // namespace nvalloc
