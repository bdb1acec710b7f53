/**
 * @file
 * Figure 19: impact of the number of bit stripes on an eADR device
 * (PmDeviceConfig::eadr: every flush and fence is a no-op),
 * Threadtest with 4 threads.
 *
 * Expected shape (§6.7): flat — with no flushes there are no reflushes
 * to avoid, so interleaving has no effect (and NVAlloc disables it
 * when pmem_has_auto_flush() reports eADR; this figure forces it back
 * on to measure that).
 */

#include "bench_common.h"

using namespace nvalloc;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    BenchParams p{args.quick};

    const unsigned stripes_list[] = {1, 2, 3, 4, 5, 6, 7, 8,
                                     12, 16, 24, 32};
    std::printf("## Fig 19 — Threadtest (4 threads) on eADR vs #bit "
                "stripes\n");
    std::printf("%-8s %18s\n", "stripes", "time (virtual ms)");
    for (unsigned stripes : stripes_list) {
        MakeOptions opts;
        // Force interleaving on despite eADR to measure its
        // (non-)effect, as the paper does before disabling it.
        opts.tweak_nvalloc = [&](NvAllocConfig &c) {
            c.interleaved_bitmap = true;
            c.interleaved_tcache = true;
            c.interleaved_wal = true;
            c.interleaved_log = true;
            c.bit_stripes = stripes;
        };
        RunResult r = runOn(AllocKind::NvAllocLog, opts,
                            [&](PmAllocator &a, VtimeEpoch &e) {
                                return threadtest(a, e, 4, p.tt_iters(),
                                                  p.tt_objs(),
                                                  p.tt_size());
                            },
                            /*eadr=*/true);
        std::printf("%-8u %18.2f\n", stripes,
                    double(r.makespan_ns) / 1e6);
    }
    return 0;
}
