/**
 * @file
 * nvbench_driver — the benchmark's single-process driver.
 *
 *   nvbench_driver --workload kv-update-heavy --seed 3 --seconds 10 \
 *                  --trace 0 [--json-out result.json]
 *   nvbench_driver --workload alloc-large-churn --trace 1 \
 *                  --trace-out spans.json
 *   nvbench_driver --selftest
 *
 * Prints every metric by name and unit, with sample counts, and exits
 * non-zero when any op failed or any correctness check did not pass.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: nvbench_driver --workload kv-update-heavy|kv-read-mostly|"
        "alloc-large-churn\n"
        "         [--seed N] [--seconds S] [--trace 0|1] [--threads N]\n"
        "         [--records N] [--ops N] [--churn-episodes N]\n"
        "         [--churn-iterations N]\n"
        "         [--json-out PATH] [--trace-out PATH]\n"
        "       nvbench_driver --selftest\n");
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t *out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nvbench;
    RunConfig cfg;
    std::string json_out;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--selftest")
            return runSelfTests() == 0 ? 0 : 1;
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            if (!parseWorkload(val, &cfg.workload))
                return usage();
            have_workload = true;
        } else if (flag == "--json-out") {
            json_out = val;
        } else if (flag == "--trace-out") {
            cfg.trace_out = val;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            cfg.seconds = std::strtod(val, &end);
            if (*end || !(cfg.seconds > 0))
                return usage();
        } else if (!parseUnsigned(val, &n)) {
            return usage();
        } else if (flag == "--seed") {
            cfg.seed = n;
        } else if (flag == "--trace" && n <= 1) {
            cfg.trace = n == 1;
        } else if (flag == "--threads" && n >= 1) {
            cfg.threads = unsigned(n);
        } else if (flag == "--records" && n >= 1 && n < (1ull << 31)) {
            cfg.records = n;
        } else if (flag == "--ops") {
            cfg.kv_fixed_ops = n;
        } else if (flag == "--churn-iterations" && n >= 1) {
            cfg.churn_iterations = n;
        } else if (flag == "--churn-episodes" && n >= 1 && n < 4096) {
            cfg.churn_episodes = unsigned(n);
        } else {
            return usage();
        }
    }
    if (!have_workload)
        return usage();
    // Closed loop, never more clients (or helpers) than cores.
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    cfg.threads = std::min(cfg.threads, cores);
    cfg.helpers = std::min(cfg.helpers, cores);

    RunReport r = runBenchmark(cfg);
    if (!json_out.empty()) {
        std::FILE *f = std::fopen(json_out.c_str(), "w");
        std::string doc = r.json(cfg);
        if (!f || std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
            std::fclose(f) != 0) {
            std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
            return 1;
        }
    }
    return r.correct && r.failed == 0 ? 0 : 1;
}
