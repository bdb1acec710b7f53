/**
 * @file
 * Figure 20: small allocations on an eADR device (PmDeviceConfig::eadr:
 * all clwb removed), strongly consistent allocators.
 *
 * Expected shape (§6.7): NVAlloc-LOG still wins on average (~240%),
 * but the gaps shrink, and PAllocator's per-thread allocators overtake
 * it at 64 threads on Threadtest while losing on the cross-thread
 * benchmarks. The device models no PM write-back on eADR, so what
 * separates the allocators here is the CPU, lock and PM-read cost
 * each model charges (DESIGN.md §1).
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    BenchParams p{args.quick};
    auto threads = benchThreadCounts(args.quick);

    struct Bench
    {
        const char *name;
        std::function<RunResult(PmAllocator &, VtimeEpoch &, unsigned)>
            run;
    };
    const Bench benches[] = {
        {"Threadtest",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return threadtest(a, e, t, p.tt_iters(), p.tt_objs(),
                               p.tt_size());
         }},
        {"Prod-con",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return prodcon(a, e, t, p.prodcon_objs(t / 2), 64);
         }},
        {"Shbench",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return shbench(a, e, t, p.sh_iters(), args.seed);
         }},
        {"Larson-small",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return larson(a, e, t, 64, 256, p.larson_small_slots(),
                           p.larson_rounds(), p.larson_small_ops(),
                           args.seed);
         }},
    };

    for (const Bench &bench : benches) {
        printSeriesHeader(
            (std::string("Fig 20 ") + bench.name + " (eADR)").c_str(),
            "throughput (Mops/s) vs threads", threads);
        for (AllocKind kind : strongGroup()) {
            std::vector<double> row;
            for (unsigned t : threads) {
                RunResult r = runOn(kind, {},
                                    [&](PmAllocator &a, VtimeEpoch &e) {
                                        return bench.run(a, e, t);
                                    },
                                    /*eadr=*/true);
                row.push_back(r.mops());
            }
            printSeriesRow(allocName(kind), row);
        }
        std::printf("\n");
    }
    return 0;
}
