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

} // namespace nvalloc

#endif // NVALLOC_BENCH_BENCH_COMMON_H
