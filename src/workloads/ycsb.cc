#include "workloads/ycsb.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_set>

namespace nvalloc {

namespace {

uint64_t
fnv64(uint64_t x)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 8; ++i) {
        h ^= x & 0xff;
        h *= 0x100000001b3ULL;
        x >>= 8;
    }
    return h;
}

/** Value length for a *load-phase* record: derived from the id alone
 *  so the crash sweep can recompute it without an oracle entry. */
uint32_t
loadValueLen(const YcsbSpec &s, uint64_t id)
{
    if (s.large_value_every &&
        id % s.large_value_every == s.large_value_every - 1)
        return s.large_value_size;
    uint32_t range = s.value_max > s.value_min
                         ? s.value_max - s.value_min + 1
                         : 1;
    return s.value_min + uint32_t(fnv64(id) % range);
}

struct OpCounters
{
    std::atomic<uint64_t> reads{0}, updates{0}, inserts{0}, scans{0},
        rmws{0}, not_found{0}, errors{0};
};

/**
 * YCSB's AcknowledgedCounterGenerator: an insert id is handed out
 * before its put completes, so read-latest picks only below limit(),
 * the highest id whose inserts — and all earlier ones — have been
 * acknowledged.
 */
class AckedInserts
{
  public:
    explicit AckedInserts(uint64_t first) : limit_(first) {}

    uint64_t limit() const { return limit_.load(std::memory_order_acquire); }

    void
    acknowledge(uint64_t id)
    {
        std::lock_guard<std::mutex> g(mu_);
        done_.insert(id);
        uint64_t l = limit_.load(std::memory_order_relaxed);
        while (done_.erase(l))
            ++l;
        limit_.store(l, std::memory_order_release);
    }

  private:
    std::atomic<uint64_t> limit_;
    std::mutex mu_;
    std::unordered_set<uint64_t> done_; //!< acknowledged, above limit_
};

} // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t items, double theta)
    : items_(items ? items : 1), theta_(theta)
{
    zetan_ = 0.0;
    for (uint64_t i = 1; i <= items_; ++i)
        zetan_ += 1.0 / std::pow(double(i), theta_);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / double(items_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
}

uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    double u = rng.nextDouble();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    uint64_t rank = uint64_t(
        double(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= items_ ? items_ - 1 : rank;
}

const char *
ycsbWorkloadName(YcsbWorkload w)
{
    switch (w) {
    case YcsbWorkload::A: return "A";
    case YcsbWorkload::B: return "B";
    case YcsbWorkload::C: return "C";
    case YcsbWorkload::D: return "D";
    case YcsbWorkload::E: return "E";
    case YcsbWorkload::F: return "F";
    }
    return "?";
}

std::string
ycsbKey(uint64_t id)
{
    char buf[32];
    int n = std::snprintf(buf, sizeof(buf), "user%llu",
                          (unsigned long long)fnv64(id));
    return std::string(buf, size_t(n));
}

std::string
ycsbValue(uint64_t id, uint64_t version, uint32_t len)
{
    std::string v(len, '\0');
    uint64_t x = fnv64(id * 1000003 + version);
    for (uint32_t i = 0; i < len; ++i) {
        if ((i & 7) == 0) {
            // SplitMix64 step: cheap, and each 8-byte run differs.
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            x = z ^ (z >> 31);
        }
        v[i] = char((x >> ((i & 7) * 8)) & 0xff);
    }
    return v;
}

YcsbResult
ycsbLoad(KvStore &store, const YcsbSpec &spec, VtimeEpoch &epoch)
{
    YcsbResult res;
    OpCounters c;
    NvAlloc &heap = store.heap();
    res.load = runWorkers(spec.threads, epoch, [&](unsigned tid) {
        ThreadCtx *ctx = heap.attachThread();
        if (!ctx)
            return uint64_t(0);
        uint64_t ops = 0;
        for (uint64_t id = tid; id < spec.record_count;
             id += spec.threads) {
            KvStatus s = store.put(
                *ctx, ycsbKey(id),
                ycsbValue(id, 0, loadValueLen(spec, id)));
            if (s == KvStatus::Ok)
                ++ops;
            else
                c.errors.fetch_add(1, std::memory_order_relaxed);
        }
        heap.detachThread(ctx);
        return ops;
    });
    res.inserts = res.load.total_ops;
    res.errors = c.errors.load();
    return res;
}

YcsbResult
ycsbRun(KvStore &store, const YcsbSpec &spec, VtimeEpoch &epoch,
        std::atomic<uint64_t> &inserted)
{
    YcsbResult res;
    OpCounters c;
    NvAlloc &heap = store.heap();
    // Shared, immutable after construction; next() takes the caller's
    // Rng so the per-thread streams stay independent and seeded.
    ZipfianGenerator zipf(spec.record_count, spec.theta);
    AckedInserts acked(inserted.load(std::memory_order_relaxed));

    auto body = [&](unsigned tid) -> uint64_t {
        ThreadCtx *ctx = heap.attachThread();
        if (!ctx)
            return uint64_t(0);
        Rng rng(spec.seed * 0x9e3779b9ULL + 0x1000 + tid);
        uint64_t ops = spec.op_count / spec.threads +
                       (tid < spec.op_count % spec.threads ? 1 : 0);
        uint32_t vrange = spec.value_max > spec.value_min
                              ? spec.value_max - spec.value_min + 1
                              : 1;
        std::string val;
        std::vector<std::pair<std::string, std::string>> scratch;

        auto pick = [&]() -> uint64_t {
            uint64_t rank = spec.zipfian ? zipf.next(rng)
                                         : rng.nextBounded(
                                               spec.record_count);
            if (spec.workload == YcsbWorkload::D) {
                // Read-latest: rank 0 is the newest acknowledged id.
                uint64_t base = acked.limit();
                return base - 1 - (rank % base);
            }
            return rank;
        };
        auto valueLen = [&]() -> uint32_t {
            if (spec.large_value_every &&
                rng.nextBounded(spec.large_value_every) == 0)
                return spec.large_value_size;
            return spec.value_min + uint32_t(rng.nextBounded(vrange));
        };
        auto note = [&](KvStatus s, std::atomic<uint64_t> &kind) {
            if (s == KvStatus::Ok)
                kind.fetch_add(1, std::memory_order_relaxed);
            else if (s == KvStatus::NotFound)
                c.not_found.fetch_add(1, std::memory_order_relaxed);
            else
                c.errors.fetch_add(1, std::memory_order_relaxed);
        };

        for (uint64_t i = 0; i < ops; ++i) {
            unsigned r = unsigned(rng.nextBounded(100));
            YcsbWorkload w = spec.workload;
            if (w == YcsbWorkload::C ||
                ((w == YcsbWorkload::A || w == YcsbWorkload::F) &&
                 r < 50) ||
                ((w == YcsbWorkload::B || w == YcsbWorkload::D) &&
                 r < 95)) {
                note(store.get(ycsbKey(pick()), &val), c.reads);
            } else if (w == YcsbWorkload::A ||
                       w == YcsbWorkload::B) {
                uint64_t id = pick();
                note(store.put(*ctx, ycsbKey(id),
                               ycsbValue(id, rng.next() & 0xffff,
                                         valueLen())),
                     c.updates);
            } else if (w == YcsbWorkload::E && r < 95) {
                unsigned len =
                    1 + unsigned(rng.nextBounded(spec.scan_len));
                note(store.scan(ycsbKey(pick()), len, &scratch),
                     c.scans);
            } else if (w == YcsbWorkload::D ||
                       w == YcsbWorkload::E) {
                uint64_t id = inserted.fetch_add(
                    1, std::memory_order_relaxed);
                note(store.put(*ctx, ycsbKey(id),
                               ycsbValue(id, 0, valueLen())),
                     c.inserts);
                acked.acknowledge(id);
            } else { // F: read-modify-write
                uint64_t id = pick();
                uint64_t version = rng.next() & 0xffff;
                uint32_t len = valueLen();
                note(store.rmw(*ctx, ycsbKey(id),
                               [&](std::string_view) {
                                   return ycsbValue(id, version,
                                                    len);
                               }),
                     c.rmws);
            }
        }
        heap.detachThread(ctx);
        return ops;
    };

    res.run = runWorkers(spec.threads, epoch, body);
    res.reads = c.reads.load();
    res.updates = c.updates.load();
    res.inserts = c.inserts.load();
    res.scans = c.scans.load();
    res.rmws = c.rmws.load();
    res.not_found = c.not_found.load();
    res.errors = c.errors.load();
    return res;
}

} // namespace nvalloc
