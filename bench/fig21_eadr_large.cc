/**
 * @file
 * Figure 21: large allocations on an eADR device (PmDeviceConfig::eadr).
 *
 * Expected shape (§6.7): NVAlloc-LOG keeps a large advantage (~11x on
 * average) even without flushes, because the VEH design plus
 * log-structured bookkeeping issues far fewer PM accesses with better
 * locality than in-place extent headers.
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    BenchParams p{args.quick};
    auto threads = benchThreadCounts(args.quick);

    const AllocKind kinds[] = {AllocKind::Pmdk, AllocKind::NvmMalloc,
                               AllocKind::PAllocator, AllocKind::Makalu,
                               AllocKind::NvAllocLog};

    struct Bench
    {
        const char *name;
        std::function<RunResult(PmAllocator &, VtimeEpoch &, unsigned)>
            run;
    };
    const Bench benches[] = {
        {"Larson-large",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return larson(a, e, t, 32 * 1024, 512 * 1024,
                           p.larson_large_slots(), p.larson_rounds(),
                           p.larson_large_ops(), args.seed);
         }},
        {"DBMStest",
         [&](PmAllocator &a, VtimeEpoch &e, unsigned t) {
             return dbmstest(a, e, t, p.dbms_iters(), p.dbms_objs(t),
                             args.seed);
         }},
    };

    for (const Bench &bench : benches) {
        printSeriesHeader(
            (std::string("Fig 21 ") + bench.name + " (eADR)").c_str(),
            "throughput (Mops/s) vs threads", threads);
        for (AllocKind kind : kinds) {
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
