/**
 * @file
 * The benchmark driver's entry points: run one workload end to end
 * (set-up, measured phase, correctness oracle, crash-restart recovery,
 * oracle again) and report its end-to-end and per-layer metrics.
 */

#ifndef NVBENCH_BENCH_H
#define NVBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"
#include "streams.h"

namespace nvbench {

enum class Workload : uint8_t
{
    KvUpdateHeavy,   //!< YCSB-A over KvStore
    KvReadMostly,    //!< YCSB-B over KvStore
    AllocLargeChurn, //!< 32-512 KiB churn on NvAlloc::mallocTo/freeFrom
};

const char *workloadName(Workload w);
bool parseWorkload(std::string_view name, Workload *out);

struct RunConfig
{
    Workload workload = Workload::KvUpdateHeavy;
    uint64_t seed = 1;
    /** Length of each KV measured phase. The churn workload runs a
     *  fixed op count instead: its cost per op grows with ops run. */
    double seconds = 10.0;
    /** Add a traced pass after the untraced one (per-layer metrics). */
    bool trace = false;
    /** Closed-loop clients in the measured phase. Two, not one per
     *  core: with every core of a small virtual host busy, stolen time
     *  and lock-convoy modes made 4-client runs bimodal. */
    unsigned threads = 2;
    /** Workers for the set-up preload and the oracle (not measured). */
    unsigned helpers = 4;
    uint64_t records = 1'000'000;
    /** When non-zero, every KV client runs exactly this many ops
     *  instead of running for `seconds`. */
    uint64_t kv_fixed_ops = 0;
    /** The churn's fixed op count: this many episodes, each on a
     *  fresh heap, of this many free+malloc iterations per client. */
    unsigned churn_episodes = 64;
    uint64_t churn_iterations = 16'000;
    /** Self-test hooks: skip the put at this index of client 0's
     *  stream while still treating it as acknowledged; ask for more
     *  than the device holds at this iteration of client 0 in churn
     *  episode 0. */
    int64_t drop_put = -1;
    int64_t oversize_at = -1;
    /** Where the traced pass writes its spans (Chrome trace JSON). */
    std::string trace_out;
    bool verbose = true;
};

struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t input_digest = 0;
    std::vector<std::string> problems;
    MetricSet end_to_end;
    MetricSet per_layer;

    std::string json(const RunConfig &cfg) const;
};

/** The op mix a KV run generates its inputs from. */
KvMix kvMixFor(const RunConfig &cfg);
ChurnMix churnMixFor(const RunConfig &cfg);

RunReport runBenchmark(const RunConfig &cfg);

/** The driver's self-tests; returns the number that failed. */
int runSelfTests();

} // namespace nvbench

#endif // NVBENCH_BENCH_H
