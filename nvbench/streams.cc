#include "streams.h"

#include <string>
#include <thread>

#include "common/rng.h"
#include "workloads/ycsb.h"

namespace nvbench {

namespace {

using nvalloc::Rng;

/** Values are slices of this much random data (plus room for one
 *  large value past the last offset). */
constexpr size_t kArenaBytes = size_t{8} << 20;

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    return seed * 0x9e3779b97f4a7c15ULL + stream;
}

KvOp
pickValue(Rng &rng, const KvMix &mix, const std::vector<char> &arena,
          bool large)
{
    KvOp op;
    op.len = large ? mix.large_size
                   : uint32_t(rng.uniform(mix.value_min, mix.value_max));
    op.off = uint32_t(rng.nextBounded(arena.size() - op.len + 1));
    return op;
}

/** Run fn(t) for t in [0, n) on n threads; each call owns its output
 *  slot, so generation stays deterministic. */
template <typename Fn>
void
parallelFor(unsigned n, Fn fn)
{
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < n; ++t)
        workers.emplace_back(fn, t);
    for (auto &w : workers)
        w.join();
}

uint64_t
fnv(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
uint64_t
fnv(uint64_t h, const std::vector<T> &v)
{
    return fnv(h, v.data(), v.size() * sizeof(T));
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

} // namespace

KvInputs
makeKvInputs(uint64_t seed, const KvMix &mix)
{
    KvInputs in;
    in.mix = mix;

    in.key_off.reserve(mix.records + 1);
    for (uint64_t id = 0; id < mix.records; ++id) {
        in.key_off.push_back(uint32_t(in.keys.size()));
        std::string k = nvalloc::ycsbKey(id);
        in.keys.insert(in.keys.end(), k.begin(), k.end());
    }
    in.key_off.push_back(uint32_t(in.keys.size()));

    Rng arena_rng(mixSeed(seed, 1));
    in.arena.resize(kArenaBytes + mix.large_size);
    for (size_t i = 0; i < in.arena.size(); i += 8) {
        uint64_t w = arena_rng.next();
        for (size_t b = 0; b < 8 && i + b < in.arena.size(); ++b)
            in.arena[i + b] = char(w >> (8 * b));
    }

    // Every large_every-th record carries a large value, as in the
    // YCSB load phase.
    Rng pre_rng(mixSeed(seed, 2));
    in.preload.reserve(mix.records);
    for (uint64_t id = 0; id < mix.records; ++id) {
        bool large = mix.large_every &&
                     id % mix.large_every == mix.large_every - 1;
        in.preload.push_back(pickValue(pre_rng, mix, in.arena, large));
    }

    // Zipfian ranks are record ids; ycsbKey's hash spreads the hot ids
    // over the key space (the YCSB reference scrambling).
    nvalloc::ZipfianGenerator zipf(mix.records, mix.theta);
    in.streams.resize(mix.threads);
    parallelFor(mix.threads, [&](unsigned t) {
        Rng rng(mixSeed(seed, 0x1000 + t));
        std::vector<KvOp> &s = in.streams[t];
        s.resize(mix.ops_per_thread);
        for (KvOp &op : s) {
            bool get = rng.nextBounded(100) < mix.get_percent;
            uint32_t key = uint32_t(zipf.next(rng));
            if (get) {
                op = KvOp{};
            } else {
                bool large = mix.large_every &&
                             rng.nextBounded(mix.large_every) == 0;
                op = pickValue(rng, mix, in.arena, large);
            }
            op.key = key;
        }
    });
    return in;
}

ChurnInputs
makeChurnInputs(uint64_t seed, const ChurnMix &mix)
{
    ChurnInputs in;
    in.mix = mix;
    in.episodes.resize(mix.episodes);
    for (unsigned e = 0; e < mix.episodes; ++e) {
        const uint64_t base = uint64_t(e) << 16;
        ChurnEpisode &ep = in.episodes[e];
        Rng fill_rng(mixSeed(seed, base + 3));
        ep.fill.resize(size_t(mix.threads) * mix.slots_per_thread);
        for (uint32_t &size : ep.fill)
            size = uint32_t(fill_rng.uniform(mix.min_size, mix.max_size));

        ep.streams.resize(mix.threads);
        parallelFor(mix.threads, [&](unsigned t) {
            Rng rng(mixSeed(seed, base + 0x2000 + t));
            std::vector<ChurnOp> &s = ep.streams[t];
            s.resize(mix.iterations_per_thread);
            for (ChurnOp &op : s) {
                op.slot = uint32_t(rng.nextBounded(mix.slots_per_thread));
                op.size =
                    uint32_t(rng.uniform(mix.min_size, mix.max_size));
            }
        });
    }
    return in;
}

uint64_t
digest(const KvInputs &in)
{
    uint64_t h = fnv(kFnvBasis, in.keys);
    h = fnv(h, in.key_off);
    h = fnv(h, in.arena);
    h = fnv(h, in.preload);
    for (const auto &s : in.streams)
        h = fnv(h, s);
    return h;
}

uint64_t
digest(const ChurnInputs &in)
{
    uint64_t h = kFnvBasis;
    for (const ChurnEpisode &ep : in.episodes) {
        h = fnv(h, ep.fill);
        for (const auto &s : ep.streams)
            h = fnv(h, s);
    }
    return h;
}

} // namespace nvbench
