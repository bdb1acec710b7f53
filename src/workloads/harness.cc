#include "workloads/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "telemetry/telemetry.h"

namespace nvalloc {

namespace {

/** NVALLOC_BENCH_ALLOCATORS filter: true when unset/empty or when the
 *  kind's registry name appears in the comma-separated list. */
bool
allocEnabled(AllocKind kind)
{
    return benchAllocatorEnabled(allocRegistryName(kind));
}

std::vector<AllocKind>
filtered(std::vector<AllocKind> kinds)
{
    std::vector<AllocKind> out;
    for (AllocKind k : kinds)
        if (allocEnabled(k))
            out.push_back(k);
    return out;
}

} // namespace

std::vector<AllocKind>
strongGroup()
{
    return filtered({AllocKind::Pmdk, AllocKind::NvmMalloc,
                     AllocKind::PAllocator, AllocKind::NvAllocLog});
}

std::vector<AllocKind>
weakGroup()
{
    return filtered(
        {AllocKind::Makalu, AllocKind::Ralloc, AllocKind::NvAllocGc});
}

const char *
allocName(AllocKind kind)
{
    switch (kind) {
      case AllocKind::Pmdk: return "PMDK";
      case AllocKind::NvmMalloc: return "nvm_malloc";
      case AllocKind::PAllocator: return "PAllocator";
      case AllocKind::Makalu: return "Makalu";
      case AllocKind::Ralloc: return "Ralloc";
      case AllocKind::NvAllocLog: return "NVAlloc-LOG";
      case AllocKind::NvAllocGc: return "NVAlloc-GC";
    }
    return "?";
}

const char *
allocRegistryName(AllocKind kind)
{
    switch (kind) {
      case AllocKind::Pmdk: return "pmdk";
      case AllocKind::NvmMalloc: return "nvm_malloc";
      case AllocKind::PAllocator: return "pallocator";
      case AllocKind::Makalu: return "makalu";
      case AllocKind::Ralloc: return "ralloc";
      case AllocKind::NvAllocLog: return "nvalloc";
      case AllocKind::NvAllocGc: return "nvalloc-gc";
    }
    return "?";
}

std::unique_ptr<PmDevice>
makeBenchDevice(size_t size, bool eadr)
{
    PmDeviceConfig cfg;
    cfg.size = size;
    cfg.eadr = eadr;
    return std::make_unique<PmDevice>(cfg);
}

std::unique_ptr<PmAllocator>
makeAllocator(AllocKind kind, PmDevice &dev, const MakeOptions &opts)
{
    return PmAllocatorRegistry::instance().make(allocRegistryName(kind),
                                                dev, opts);
}

namespace {

std::atomic<uint64_t> g_failed_allocs{0};

/** Accumulates benchJsonPoint records; written as one JSON document at
 *  process exit, so every figure section of a bench binary lands in a
 *  single BENCH_<prog>.json, next to the process's failed-allocation
 *  total. */
struct BenchJsonSink
{
    struct Point
    {
        std::string section, series, x;
        double value;
    };

    std::string path;    //!< empty = emission disabled
    std::string section; //!< most recent printSeriesHeader figure
    std::vector<unsigned> xs;
    std::vector<Point> points;

    ~BenchJsonSink()
    {
        if (path.empty() || points.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "{\"failed_allocs\":%llu,\"points\":[",
                     (unsigned long long)g_failed_allocs.load(
                         std::memory_order_relaxed));
        for (size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            std::fprintf(f,
                         "%s\n {\"section\":\"%s\",\"series\":\"%s\","
                         "\"x\":\"%s\",\"value\":%.6f}",
                         i ? "," : "", p.section.c_str(),
                         p.series.c_str(), p.x.c_str(), p.value);
        }
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }
};

BenchJsonSink g_bench_json;

} // namespace

void
noteFailedAlloc()
{
    g_failed_allocs.fetch_add(1, std::memory_order_relaxed);
}

RunResult
runWorkers(unsigned threads, VtimeEpoch &epoch,
           const std::function<uint64_t(unsigned tid)> &body)
{
    const uint64_t failed_base =
        g_failed_allocs.load(std::memory_order_relaxed);
    struct PerThread
    {
        uint64_t ops = 0;
        uint64_t elapsed = 0;
        std::array<uint64_t, kNumTimeKinds> kinds{};
    };
    std::vector<PerThread> results(threads);

    // Every worker of a phase starts at the same virtual instant; a
    // worker that queues on virtual-time resources shows the full
    // serialized time relative to this shared base.
    const uint64_t phase_base = epoch.base();

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned tid = 0; tid < threads; ++tid) {
        workers.emplace_back([&, tid] {
            VClock::reset();
            VClock::setNow(phase_base);
            // RunResult.breakdown comes from the telemetry layer (a
            // veneer over the same per-thread attribution buckets the
            // ctl tree's flush counters are keyed against), so figure
            // benches and nvalloc_stat report from one source.
            auto kinds0 = Telemetry::threadTimeBreakdown();

            results[tid].ops = body(tid);

            results[tid].elapsed = VClock::now() - phase_base;
            auto kinds1 = Telemetry::threadTimeBreakdown();
            for (unsigned k = 0; k < kNumTimeKinds; ++k)
                results[tid].kinds[k] = kinds1[k] - kinds0[k];
            epoch.observe(VClock::now());
        });
    }
    for (auto &w : workers)
        w.join();

    RunResult out;
    out.failed_allocs =
        g_failed_allocs.load(std::memory_order_relaxed) - failed_base;
    if (out.failed_allocs != 0) {
        std::fprintf(stderr, "bench: %s: %u-thread run: %llu failed "
                             "allocations\n",
                     g_bench_json.section.c_str(), threads,
                     (unsigned long long)out.failed_allocs);
    }
    for (const PerThread &r : results) {
        out.total_ops += r.ops;
        if (r.elapsed > out.makespan_ns)
            out.makespan_ns = r.elapsed;
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            out.breakdown[k] += r.kinds[k];
    }
    return out;
}

std::vector<unsigned>
benchThreadCounts(bool quick)
{
    if (quick)
        return {1, 4, 16};
    return {1, 2, 4, 8, 16, 32, 64};
}

std::vector<unsigned>
benchThreadCountsSmallPath(bool quick)
{
    if (quick)
        return {1, 4, 16, 64, 128};
    return {1, 2, 4, 8, 16, 32, 64, 128};
}

void
benchJsonPoint(const std::string &section, const std::string &series,
               const std::string &x, double value)
{
    if (g_bench_json.path.empty())
        return;
    g_bench_json.points.push_back({section, series, x, value});
}

void
benchJsonSetProgram(const char *prog)
{
    const char *dir = std::getenv("NVALLOC_BENCH_JSON_DIR");
    if (dir && *dir && prog && *prog)
        g_bench_json.path =
            std::string(dir) + "/BENCH_" + prog + ".json";
}

bool
benchAllocatorEnabled(const char *registry_name)
{
    const char *env = std::getenv("NVALLOC_BENCH_ALLOCATORS");
    if (!env || !*env)
        return true;
    size_t want_len = std::strlen(registry_name);
    for (const char *p = env; *p;) {
        const char *comma = std::strchr(p, ',');
        size_t len = comma ? size_t(comma - p) : std::strlen(p);
        if (len == want_len &&
            std::strncmp(p, registry_name, len) == 0)
            return true;
        p += len + (comma ? 1 : 0);
    }
    return false;
}

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            args.quick = true;
        else if (std::strncmp(argv[i], "--seed=", 7) == 0)
            args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
    const char *dir = std::getenv("NVALLOC_BENCH_JSON_DIR");
    if (dir && *dir && argc > 0) {
        const char *prog = argv[0];
        if (const char *slash = std::strrchr(prog, '/'))
            prog = slash + 1;
        g_bench_json.path =
            std::string(dir) + "/BENCH_" + prog + ".json";
    }
    return args;
}

void
printSeriesHeader(const char *figure, const char *ylabel,
                  const std::vector<unsigned> &threads)
{
    std::printf("## %s — %s\n", figure, ylabel);
    std::printf("%-14s", "allocator");
    for (unsigned t : threads)
        std::printf(" %10u", t);
    std::printf("\n");
    g_bench_json.section = figure;
    g_bench_json.xs = threads;
}

void
printSeriesRow(const char *name, const std::vector<double> &values)
{
    std::printf("%-14s", name);
    for (double v : values)
        std::printf(" %10.3f", v);
    std::printf("\n");
    for (size_t i = 0; i < values.size(); ++i) {
        std::string x = i < g_bench_json.xs.size()
                            ? std::to_string(g_bench_json.xs[i])
                            : std::to_string(i);
        benchJsonPoint(g_bench_json.section, name, x, values[i]);
    }
}

} // namespace nvalloc
