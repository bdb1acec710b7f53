/**
 * @file
 * Figure 10: small-allocation throughput of the weakly consistent
 * (GC-based) allocators — Makalu, Ralloc, NVAlloc-GC — on Threadtest,
 * Prod-con, Shbench and Larson-small.
 *
 * Expected shape (paper §6.2): NVAlloc-GC wins (up to 70x over Makalu
 * at scale, up to 6x over Ralloc) because it manages blocks with
 * bitmaps + a volatile DRAM copy while Makalu/Ralloc chase embedded
 * free-list pointers stored in PM; Makalu additionally serializes on
 * central heap structures.
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    runThroughputFigure("Fig 10", "", smallBenches(args), weakGroup(),
                        benchThreadCounts(args.quick), /*eadr=*/false);
    return 0;
}
