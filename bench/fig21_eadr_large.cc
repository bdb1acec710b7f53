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
    runThroughputFigure("Fig 21", " (eADR)", largeBenches(args),
                        largeGroup(), benchThreadCounts(args.quick),
                        /*eadr=*/true);
    return 0;
}
