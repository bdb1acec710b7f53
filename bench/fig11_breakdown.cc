/**
 * @file
 * Figure 11: execution-time breakdown (FlushMeta / FlushWAL / Search /
 * Other) of NVAlloc-LOG configurations at 8 threads on Threadtest,
 * Larson-small and DBMStest.
 *
 * Configurations as in the paper:
 *   Base         — no optimization: sequential bitmaps/WAL/tcache and
 *                  in-place extent bookkeeping;
 *   +Interleaved — only the interleaved tcache layout;
 *   +Log         — only log-structured bookkeeping;
 *   NVAlloc-LOG  — everything.
 *
 * Expected shape (§6.2): FlushMeta+FlushWAL ≈ 87% of Base on
 * Threadtest; +Interleaved cuts FlushMeta by ~half; the full system
 * cuts total flush time by ~48%; on DBMStest +Log removes ~45% of
 * flush time and the full system another ~26%.
 */

#include "bench_common.h"

using namespace nvalloc;

namespace {

struct Config
{
    const char *name;
    bool tcache_il, bitmap_il, wal_il, log;
    bool harden;
};

const Config kConfigs[] = {
    {"Base", false, false, false, false, false},
    {"+Interleaved", true, false, false, false, false},
    {"+Log", false, false, false, true, false},
    {"NVAlloc-LOG", true, true, true, true, false},
    // Full system plus the hardened free pipeline (free-side
    // validation, redzone canaries, a 16-deep quarantine). Guard
    // sampling stays off: it reroutes allocations to guard extents
    // and would change what is measured, not just how fast.
    {"+HardenedFree", true, true, true, true, true},
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    BenchParams p{args.quick};
    const unsigned kThreads = 8;

    struct Bench
    {
        const char *name;
        std::function<RunResult(PmAllocator &, VtimeEpoch &)> run;
    };
    const Bench benches[] = {
        {"Threadtest",
         [&](PmAllocator &a, VtimeEpoch &e) {
             return threadtest(a, e, kThreads, p.tt_iters(), p.tt_objs(),
                               p.tt_size());
         }},
        {"Larson-small",
         [&](PmAllocator &a, VtimeEpoch &e) {
             return larson(a, e, kThreads, 64, 256,
                           p.larson_small_slots(), p.larson_rounds(),
                           p.larson_small_ops(), args.seed);
         }},
        {"DBMStest",
         [&](PmAllocator &a, VtimeEpoch &e) {
             return dbmstest(a, e, kThreads, p.dbms_iters(),
                             p.dbms_objs(kThreads), args.seed);
         }},
    };

    for (const Bench &bench : benches) {
        std::printf("## Fig 11 %s — normalized time breakdown "
                    "(8 threads)\n", bench.name);
        std::printf("%-14s %8s | %9s %9s %9s %7s %7s %7s\n", "config",
                    "rel.time", "FlushMeta", "FlushWAL", "FlushLog",
                    "Search", "Lock", "Other");

        double base_time = 0;
        for (const Config &cfg : kConfigs) {
            MakeOptions opts;
            opts.tweak_nvalloc = [&](NvAllocConfig &c) {
                c.interleaved_tcache = cfg.tcache_il;
                c.interleaved_bitmap = cfg.bitmap_il;
                c.interleaved_wal = cfg.wal_il;
                c.interleaved_log = cfg.log && cfg.wal_il;
                c.log_bookkeeping = cfg.log;
                c.redzone_canaries = cfg.harden;
                c.quarantine_depth = cfg.harden ? 16 : 0;
            };
            RunResult r = runOn(AllocKind::NvAllocLog, opts,
                                [&](PmAllocator &a, VtimeEpoch &e) {
                                    return bench.run(a, e);
                                });
            double total = 0;
            for (auto v : r.breakdown)
                total += double(v);
            if (base_time == 0)
                base_time = total;

            auto pct = [&](TimeKind k) {
                return 100.0 * double(r.breakdown[unsigned(k)]) / total;
            };
            double other = pct(TimeKind::Other) + pct(TimeKind::Fence) +
                           pct(TimeKind::FlushData) +
                           pct(TimeKind::PmRead);
            std::printf("%-14s %7.2fx | %8.1f%% %8.1f%% %8.1f%% "
                        "%6.1f%% %6.1f%% %6.1f%%\n",
                        cfg.name, total / base_time,
                        pct(TimeKind::FlushMeta), pct(TimeKind::FlushWal),
                        pct(TimeKind::FlushLog), pct(TimeKind::Search),
                        pct(TimeKind::LockWait), other);

            std::string section = std::string("Fig 11 ") + bench.name;
            benchJsonPoint(section, cfg.name, "rel_time",
                           total / base_time);
            benchJsonPoint(section, cfg.name, "FlushMeta",
                           pct(TimeKind::FlushMeta));
            benchJsonPoint(section, cfg.name, "FlushWAL",
                           pct(TimeKind::FlushWal));
            benchJsonPoint(section, cfg.name, "FlushLog",
                           pct(TimeKind::FlushLog));
            benchJsonPoint(section, cfg.name, "Search",
                           pct(TimeKind::Search));
            benchJsonPoint(section, cfg.name, "Lock",
                           pct(TimeKind::LockWait));
            benchJsonPoint(section, cfg.name, "Other", other);
        }
        std::printf("\n");
    }
    return 0;
}
