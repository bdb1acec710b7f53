/**
 * @file
 * nvalloc_ycsb — YCSB A-F traffic driver over the KV service
 * (DESIGN.md §13).
 *
 *   nvalloc_ycsb                      # full run: A-F, 1M keys,
 *                                     # threads {1,8,16}, zipfian
 *   nvalloc_ycsb --quick              # CI shape: 20k keys, {1,4,8}
 *   nvalloc_ycsb --workload B         # one mix
 *   nvalloc_ycsb --uniform --theta=0.8 --records=2000000 --ops=500000
 *   nvalloc_ycsb --crash              # crash-mid-YCSB smoke: run A
 *                                     # on a shadow device, kill it at
 *                                     # a seeded flush, recover,
 *                                     # verify + audit (exit != 0 on
 *                                     # any violation)
 *
 * Emits BENCH_ycsb.json through the harness JSON path when
 * NVALLOC_BENCH_JSON_DIR is set (section "ycsb-<W>", series
 * "nvalloc", x = thread count, value = run-phase Mops/s) and honours
 * NVALLOC_BENCH_ALLOCATORS — the KV store rides NVAlloc-LOG, so the
 * whole figure is skipped unless "nvalloc" is enabled. The t=1 rows
 * are virtual-time exact for a given seed; threaded rows jitter with
 * host scheduling inside bench_compare's tolerances.
 *
 * The --crash verdict doubles as the CI leg's fsck stage for the KV
 * heap: the emulated device is anonymous memory, so the audit runs
 * in-process (HeapAuditor — the engine behind nvalloc_fsck) plus the
 * KV layer's own full-checksum verify().
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "workloads/ycsb.h"

namespace nvalloc {
namespace {

struct Options
{
    std::string workloads = "ABCDEF";
    uint64_t records = 1'000'000;
    uint64_t ops = 0; //!< 0 = same as records
    std::vector<unsigned> threads;
    bool quick = false;
    bool uniform = false;
    double theta = 0.99;
    uint64_t seed = 42;
    bool crash = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--workload A..F|all] [--records N]\n"
        "          [--ops N] [--threads N[,N...]] [--uniform]\n"
        "          [--theta X] [--seed N] [--crash]\n",
        argv0);
    return 2;
}

YcsbSpec
makeSpec(const Options &o, YcsbWorkload w, unsigned threads)
{
    YcsbSpec spec;
    spec.workload = w;
    spec.record_count = o.records;
    spec.op_count = o.ops ? o.ops : o.records;
    spec.threads = threads;
    spec.zipfian = !o.uniform;
    spec.theta = o.theta;
    spec.seed = o.seed;
    return spec;
}

/** One workload at one thread count on a fresh heap; returns the
 *  run-phase throughput. */
double
runOne(const Options &o, YcsbWorkload w, unsigned threads,
       uint64_t *errors)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{4} << 30;
    PmDevice dev(dcfg);
    auto heap_h = NvAlloc::openOrDie(dev);
    NvAlloc &heap = *heap_h;
    YcsbSpec spec = makeSpec(o, w, threads);

    KvOptions ko;
    ko.buckets = spec.record_count;
    KvStatus why;
    auto store = KvStore::open(heap, ko, &why);
    if (!store) {
        std::fprintf(stderr, "ycsb: kv open failed: %s\n",
                     kvStatusName(why));
        *errors += 1;
        return 0.0;
    }

    VtimeEpoch epoch;
    YcsbResult load = ycsbLoad(*store, spec, epoch);
    std::atomic<uint64_t> inserted{spec.record_count};
    YcsbResult run = ycsbRun(*store, spec, epoch, inserted);
    *errors += load.errors + run.errors;
    return run.run.mops();
}

int
runBench(const Options &o)
{
    if (!benchAllocatorEnabled("nvalloc")) {
        std::printf("ycsb: allocator filter excludes nvalloc; "
                    "nothing to run\n");
        return 0;
    }
    uint64_t errors = 0;
    for (char wc : o.workloads) {
        YcsbWorkload w = YcsbWorkload(wc - 'A');
        std::string figure =
            std::string("ycsb-") + ycsbWorkloadName(w);
        printSeriesHeader(figure.c_str(), "Mops/s (run phase)",
                          o.threads);
        std::vector<double> row;
        for (unsigned t : o.threads)
            row.push_back(runOne(o, w, t, &errors));
        printSeriesRow("nvalloc", row);
    }
    if (errors) {
        std::fprintf(stderr, "ycsb: %" PRIu64 " op errors\n", errors);
        return 1;
    }
    return 0;
}

/**
 * Crash-mid-YCSB smoke: load + partial run of workload A on a shadow
 * device, crash armed at a seed-derived flush count, then recovery
 * must yield a heap that (a) audits clean, (b) passes the KV store's
 * full-checksum verify, and (c) still holds every load-phase key —
 * workload A never erases, so a missing key would be a lost commit.
 */
int
runCrashSmoke(const Options &o)
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 28;
    dcfg.shadow = true;
    PmDevice dev(dcfg);

    uint64_t records = o.records > 20000 ? 20000 : o.records;
    Options so = o;
    so.records = records;
    so.ops = records;
    YcsbSpec spec = makeSpec(so, YcsbWorkload::A, 4);
    spec.large_value_every = 256;
    spec.large_value_size = 8192;

    bool triggered = false;
    {
        auto heap_h = NvAlloc::openOrDie(dev);
        NvAlloc &heap = *heap_h;
        KvOptions ko;
        ko.buckets = records;
        auto store = KvStore::open(heap, ko);
        if (!store) {
            std::fprintf(stderr, "ycsb-crash: kv open failed\n");
            return 1;
        }
        VtimeEpoch epoch;
        YcsbResult load = ycsbLoad(*store, spec, epoch);
        if (load.errors || load.inserts != records) {
            std::fprintf(stderr, "ycsb-crash: load failed\n");
            return 1;
        }
        // Arm after the load so the crash lands inside the run mix.
        dev.armCrashAtFlush(1 + unsigned(o.seed % 4096));
        std::atomic<uint64_t> inserted{records};
        ycsbRun(*store, spec, epoch, inserted);
        triggered = dev.crashTriggered();
        store.reset();
        heap.simulateCrash();
    }

    auto again_h = NvAlloc::openOrDie(dev);
    NvAlloc &again = *again_h;
    KvStatus why;
    auto store = KvStore::open(again, KvOptions{}, &why);
    if (!store) {
        std::fprintf(stderr, "ycsb-crash: reopen failed: %s\n",
                     kvStatusName(why));
        return 1;
    }
    int rc = 0;
    AuditReport audit = HeapAuditor(again).audit();
    if (audit.violations() != 0) {
        std::fprintf(stderr, "ycsb-crash: audit: %s\n",
                     audit.summary().c_str());
        rc = 1;
    }
    if (store->verify() != KvStatus::Ok) {
        std::fprintf(stderr, "ycsb-crash: checksum verify failed\n");
        rc = 1;
    }
    std::string val;
    uint64_t missing = 0;
    for (uint64_t id = 0; id < records; ++id)
        if (store->get(ycsbKey(id), &val) != KvStatus::Ok)
            ++missing;
    if (missing) {
        std::fprintf(stderr,
                     "ycsb-crash: %" PRIu64 " committed keys lost\n",
                     missing);
        rc = 1;
    }
    std::printf("ycsb-crash: crash=%s records=%" PRIu64
                " recovered=%" PRIu64 " audit=%s verify=%s\n",
                triggered ? "triggered" : "not-reached", records,
                store->count(), rc ? "FAIL" : "clean",
                rc ? "FAIL" : "ok");
    return rc;
}

} // namespace
} // namespace nvalloc

int
main(int argc, char **argv)
{
    using namespace nvalloc;
    Options o;
    BenchArgs args = BenchArgs::parse(argc, argv);
    o.quick = args.quick;
    o.seed = args.seed;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto val = [&](const char *pfx) -> const char * {
            size_t n = std::strlen(pfx);
            return std::strncmp(a, pfx, n) == 0 ? a + n : nullptr;
        };
        if (std::strcmp(a, "--quick") == 0 ||
            std::strncmp(a, "--seed=", 7) == 0) {
            // handled by BenchArgs::parse
        } else if (std::strcmp(a, "--crash") == 0) {
            o.crash = true;
        } else if (std::strcmp(a, "--uniform") == 0) {
            o.uniform = true;
        } else if (const char *v = val("--workload=")) {
            if (std::strcmp(v, "all") == 0) {
                o.workloads = "ABCDEF";
            } else if (std::strlen(v) == 1 && *v >= 'A' &&
                       *v <= 'F') {
                o.workloads = v;
            } else {
                return usage(argv[0]);
            }
        } else if (std::strcmp(a, "--workload") == 0 &&
                   i + 1 < argc) {
            a = argv[++i];
            if (std::strcmp(a, "all") == 0)
                o.workloads = "ABCDEF";
            else if (std::strlen(a) == 1 && *a >= 'A' && *a <= 'F')
                o.workloads = a;
            else
                return usage(argv[0]);
        } else if (const char *v = val("--records=")) {
            o.records = std::strtoull(v, nullptr, 10);
        } else if (const char *v = val("--ops=")) {
            o.ops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = val("--theta=")) {
            o.theta = std::strtod(v, nullptr);
        } else if (const char *v = val("--threads=")) {
            o.threads.clear();
            for (const char *p = v; *p;) {
                o.threads.push_back(unsigned(std::strtoul(
                    p, const_cast<char **>(&p), 10)));
                if (*p == ',')
                    ++p;
            }
        } else {
            return usage(argv[0]);
        }
    }
    if (o.quick && o.records == 1'000'000)
        o.records = 20'000;
    if (o.threads.empty())
        o.threads = o.quick ? std::vector<unsigned>{1, 4, 8}
                            : std::vector<unsigned>{1, 8, 16};
    benchJsonSetProgram("ycsb");

    if (o.crash)
        return runCrashSmoke(o);
    return runBench(o);
}
