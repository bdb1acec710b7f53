/**
 * @file
 * Figure 12: large-allocation throughput (Larson-large: 32-512 KB
 * objects; DBMStest) for PMDK, nvm_malloc, PAllocator, Makalu and
 * NVAlloc-LOG. Ralloc is excluded (broken for large objects) and
 * NVAlloc-GC equals NVAlloc-LOG on this path, both as in the paper.
 *
 * Expected shape (§6.2): NVAlloc-LOG up to 40x/18x/55x/57x faster than
 * PMDK/nvm_malloc/PAllocator/Makalu — log-structured bookkeeping turns
 * the random in-place extent-header updates into sequential appends.
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    runThroughputFigure("Fig 12", "", largeBenches(args), largeGroup(),
                        benchThreadCounts(args.quick), /*eadr=*/false);
    return 0;
}
