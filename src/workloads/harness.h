/**
 * @file
 * Benchmark harness: allocator factory, virtual-time thread runner,
 * and the table/series printers used by every bench binary.
 *
 * Throughput methodology: each worker thread starts its virtual clock
 * at the latest virtual time any earlier worker of the same run
 * context reached (so virtual-time locks and media slots carry over),
 * executes the workload, and reports its elapsed virtual nanoseconds.
 * A phase's makespan is the maximum elapsed time across its workers;
 * throughput is ops / makespan. This reproduces the paper's scaling
 * curves deterministically on any host (see DESIGN.md §1).
 */

#ifndef NVALLOC_WORKLOADS_HARNESS_H
#define NVALLOC_WORKLOADS_HARNESS_H

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/allocator_iface.h"
#include "nvalloc/config.h"
#include "pm/vclock.h"

namespace nvalloc {

/** Allocators under evaluation, by paper name. */
enum class AllocKind
{
    Pmdk,
    NvmMalloc,
    PAllocator,
    Makalu,
    Ralloc,
    NvAllocLog,
    NvAllocGc,
};

/**
 * The paper's two comparison groups (§6.1). When the environment
 * variable NVALLOC_BENCH_ALLOCATORS is set to a comma-separated list
 * of registry names (e.g. "pmdk,nvalloc"), each group is filtered to
 * the named allocators so run_benches.sh can sweep subsets.
 */
std::vector<AllocKind> strongGroup();
std::vector<AllocKind> weakGroup();

const char *allocName(AllocKind kind);

/** Registry name (PmAllocatorRegistry key) for a paper AllocKind. */
const char *allocRegistryName(AllocKind kind);

/** Device used by the benches; `eadr` builds the paper's §6.7
 *  platform, whose flushes and fences are free. */
std::unique_ptr<PmDevice> makeBenchDevice(size_t size = size_t{4} << 30,
                                          bool eadr = false);

/** Thin wrapper over PmAllocatorRegistry::make(allocRegistryName(kind)):
 *  MakeOptions lives in allocator_iface.h next to the registry. */
std::unique_ptr<PmAllocator> makeAllocator(AllocKind kind, PmDevice &dev,
                                           const MakeOptions &opts = {});

/** Carries virtual time across phases of one allocator's lifetime. */
class VtimeEpoch
{
  public:
    uint64_t base() const { return base_.load(); }

    void
    observe(uint64_t t)
    {
        uint64_t cur = base_.load(std::memory_order_relaxed);
        while (t > cur &&
               !base_.compare_exchange_weak(cur, t)) {
        }
    }

  private:
    std::atomic<uint64_t> base_{0};
};

struct RunResult
{
    uint64_t total_ops = 0;
    uint64_t makespan_ns = 0;
    /** allocTo calls that returned 0 (exhaustion); see noteFailedAlloc.
     *  runWorkers prints one stderr line for a run where it is
     *  non-zero. */
    uint64_t failed_allocs = 0;
    std::array<uint64_t, kNumTimeKinds> breakdown{};

    double
    mops() const
    {
        return makespan_ns ? double(total_ops) * 1e3 / double(makespan_ns)
                           : 0.0;
    }
};

/**
 * Run `threads` workers; each body returns its operation count. The
 * harness manages clock continuity and aggregates the per-kind
 * breakdown.
 */
RunResult runWorkers(unsigned threads, VtimeEpoch &epoch,
                     const std::function<uint64_t(unsigned tid)> &body);

/**
 * Record one allocTo that returned 0. Workload bodies call this on
 * every failed allocation instead of aborting; runWorkers folds the
 * count accumulated during the run into RunResult.failed_allocs.
 * Thread safe.
 */
void noteFailedAlloc();

/** Thread counts swept by the paper's figures. */
std::vector<unsigned> benchThreadCounts(bool quick);

/** Wider ladder for the small-path figures (fig 9): extends the sweep
 *  to 64 and 128 threads, where the lock-free fast path separates
 *  from the mutex designs. 128 is the WAL-slot ceiling
 *  (kMaxThreads). */
std::vector<unsigned> benchThreadCountsSmallPath(bool quick);

/** Parse --quick / --threads=N style bench arguments. */
struct BenchArgs
{
    bool quick = false;
    uint64_t seed = 42;

    static BenchArgs parse(int argc, char **argv);
};

/** Print one series row: "<name> t1 v1 t2 v2 ..." (figure format). */
void printSeriesHeader(const char *figure, const char *ylabel,
                       const std::vector<unsigned> &threads);
void printSeriesRow(const char *name,
                    const std::vector<double> &values);

/**
 * Machine-readable figure emission: when NVALLOC_BENCH_JSON_DIR is
 * set, every printSeriesHeader/printSeriesRow pair also records its
 * points, and the accumulated document is written to
 * $NVALLOC_BENCH_JSON_DIR/BENCH_<prog>.json at process exit (<prog> is
 * the basename of argv[0], stamped by BenchArgs::parse), with the
 * process's total of noted failed allocations as a top-level
 * "failed_allocs" key. Figures with bespoke tables record through
 * benchJsonPoint directly. The virtual
 * clock makes single-thread numbers exactly reproducible for a given
 * seed (multi-thread rows jitter a few percent with host scheduling),
 * so CI compares whole runs against a committed baseline
 * (tools/bench_compare.py) instead of eyeballing throughput tables.
 */
void benchJsonPoint(const std::string &section,
                    const std::string &series, const std::string &x,
                    double value);

/** Override the <prog> stamped by BenchArgs::parse, for binaries
 *  whose figure name differs from their executable name (the YCSB
 *  driver is nvalloc_ycsb but emits BENCH_ycsb.json). No-op when
 *  NVALLOC_BENCH_JSON_DIR is unset. Call after BenchArgs::parse. */
void benchJsonSetProgram(const char *prog);

/** The NVALLOC_BENCH_ALLOCATORS filter by registry name, for bench
 *  binaries that are not organised around AllocKind groups: true when
 *  the variable is unset/empty or lists `registry_name`. */
bool benchAllocatorEnabled(const char *registry_name);

} // namespace nvalloc

#endif // NVALLOC_WORKLOADS_HARNESS_H
