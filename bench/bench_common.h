/**
 * @file
 * Shared scaffolding for the figure-reproduction benches.
 *
 * Each bench binary regenerates one table/figure of the paper: it
 * sweeps the same allocators, thread counts, and workload parameters
 * (scaled; see DESIGN.md §3) and prints the series the paper plots.
 * Metrics are virtual-time throughputs (Mops/s) unless a figure
 * reports memory or counters. `--quick` shrinks the sweep for CI.
 */

#ifndef NVALLOC_BENCH_BENCH_COMMON_H
#define NVALLOC_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "workloads/workloads.h"

namespace nvalloc {

/** Workload parameter sets, already scaled from the paper's values. */
struct BenchParams
{
    bool quick = false;

    unsigned tt_iters() const { return quick ? 2 : 4; }
    unsigned tt_objs() const { return quick ? 500 : 1000; }
    size_t tt_size() const { return 64; }

    uint64_t
    prodcon_objs(unsigned pairs) const
    {
        uint64_t total = quick ? 8192 : 32768;
        return total / (pairs ? pairs : 1);
    }

    unsigned sh_iters() const { return quick ? 1500 : 5000; }

    unsigned larson_small_slots() const { return 512; }
    unsigned larson_rounds() const { return quick ? 2 : 4; }
    unsigned larson_small_ops() const { return quick ? 800 : 2000; }

    unsigned larson_large_slots() const { return 32; }
    unsigned larson_large_ops() const { return quick ? 200 : 400; }

    unsigned dbms_iters() const { return quick ? 3 : 6; }

    unsigned
    dbms_objs(unsigned threads) const
    {
        unsigned n = (quick ? 256 : 512) / threads;
        return n < 16 ? 16 : n;
    }

    size_t frag_total() const
    {
        return quick ? (size_t{64} << 20) : (size_t{256} << 20);
    }
    size_t frag_live() const
    {
        return quick ? (size_t{12} << 20) : (size_t{48} << 20);
    }
};

/** Fresh device (eADR if asked) + allocator, run one workload, return
 *  the result. */
inline RunResult
runOn(AllocKind kind, const MakeOptions &opts,
      const std::function<RunResult(PmAllocator &, VtimeEpoch &)> &body,
      bool eadr = false)
{
    auto dev = makeBenchDevice(size_t{4} << 30, eadr);
    auto alloc = makeAllocator(kind, *dev, opts);
    VtimeEpoch epoch;
    return body(*alloc, epoch);
}

/** One workload of a throughput figure, run at a thread count. */
struct FigureBench
{
    const char *name;
    std::function<RunResult(PmAllocator &, VtimeEpoch &, unsigned)> run;
};

/** The small-allocation figures' workloads (Figs. 9, 10, 20). */
inline std::vector<FigureBench>
smallBenches(const BenchArgs &args)
{
    BenchParams p{args.quick};
    uint64_t seed = args.seed;
    return {
        {"Threadtest",
         [p](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return threadtest(a, e, t, p.tt_iters(), p.tt_objs(),
                               p.tt_size());
         }},
        {"Prod-con",
         [p](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return prodcon(a, e, t, p.prodcon_objs(t / 2), 64);
         }},
        {"Shbench",
         [p, seed](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return shbench(a, e, t, p.sh_iters(), seed);
         }},
        {"Larson-small",
         [p, seed](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return larson(a, e, t, 64, 256, p.larson_small_slots(),
                           p.larson_rounds(), p.larson_small_ops(), seed);
         }},
    };
}

/** The large-allocation figures' workloads (Figs. 12, 21):
 *  Larson-large with 32-512 KB objects, and DBMStest. */
inline std::vector<FigureBench>
largeBenches(const BenchArgs &args)
{
    BenchParams p{args.quick};
    uint64_t seed = args.seed;
    return {
        {"Larson-large",
         [p, seed](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return larson(a, e, t, 32 * 1024, 512 * 1024,
                           p.larson_large_slots(), p.larson_rounds(),
                           p.larson_large_ops(), seed);
         }},
        {"DBMStest",
         [p, seed](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return dbmstest(a, e, t, p.dbms_iters(), p.dbms_objs(t), seed);
         }},
    };
}

/** The large-allocation figures' allocators: Ralloc is excluded
 *  (broken for large objects) and NVAlloc-GC equals NVAlloc-LOG on
 *  this path, both as in the paper. */
inline std::vector<AllocKind>
largeGroup()
{
    return {AllocKind::Pmdk, AllocKind::NvmMalloc, AllocKind::PAllocator,
            AllocKind::Makalu, AllocKind::NvAllocLog};
}

/**
 * The throughput figures' one body: per bench, a table titled
 * "<figure> <bench><suffix>" with a row per allocator and a column
 * per thread count, every point on a fresh device (eADR if asked).
 */
inline void
runThroughputFigure(const char *figure, const char *suffix,
                    const std::vector<FigureBench> &benches,
                    const std::vector<AllocKind> &kinds,
                    const std::vector<unsigned> &threads, bool eadr)
{
    for (const FigureBench &bench : benches) {
        printSeriesHeader(
            (std::string(figure) + " " + bench.name + suffix).c_str(),
            "throughput (Mops/s) vs threads", threads);
        for (AllocKind kind : kinds) {
            std::vector<double> row;
            for (unsigned t : threads) {
                RunResult r = runOn(
                    kind, {},
                    [&](PmAllocator &a, VtimeEpoch &e) {
                        return bench.run(a, e, t);
                    },
                    eadr);
                row.push_back(r.mops());
            }
            printSeriesRow(allocName(kind), row);
        }
        std::printf("\n");
    }
}

} // namespace nvalloc

#endif // NVALLOC_BENCH_BENCH_COMMON_H
