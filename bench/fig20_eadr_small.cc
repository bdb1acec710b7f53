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
    runThroughputFigure("Fig 20", " (eADR)", smallBenches(args),
                        strongGroup(), benchThreadCounts(args.quick),
                        /*eadr=*/true);
    return 0;
}
