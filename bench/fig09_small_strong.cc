/**
 * @file
 * Figure 9: small-allocation throughput of the strongly consistent
 * allocators (PMDK, nvm_malloc, PAllocator, NVAlloc-LOG) on
 * Threadtest, Prod-con, Shbench and Larson-small, over 1-64 threads.
 *
 * Expected shape (paper §6.2): NVAlloc-LOG wins everywhere — up to
 * 6.4x over PMDK, 3.5x over nvm_malloc, 3.9x over PAllocator —
 * because interleaved mapping removes the cache-line reflushes in
 * both bitmap and WAL updates.
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    // Fig 9 runs the wide ladder: 64 and 128 threads are where the
    // lock-free small path separates from the mutex-based designs.
    runThroughputFigure("Fig 9", "", smallBenches(args), strongGroup(),
                        benchThreadCountsSmallPath(args.quick),
                        /*eadr=*/false);
    return 0;
}
