/**
 * @file
 * The driver's self-tests: seeded inputs are byte-identical, the oracle
 * catches a dropped put, malformed metric names are refused, a null
 * mallocTo lands in failed_op_ratio, and the 1-thread per-layer counts
 * repeat exactly run to run.
 */

#include <cstdio>
#include <string>

#include "bench.h"

namespace nvbench {

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

/** A small, single-client, fixed-op-count run of `w`. */
RunConfig
smallRun(Workload w)
{
    RunConfig c;
    c.workload = w;
    c.seed = 11;
    c.threads = 1;
    c.helpers = 1;
    c.records = 4000;
    c.kv_fixed_ops = 20000;
    c.churn_iterations = 3000;
    c.churn_episodes = 2;
    c.verbose = false;
    return c;
}

void
sameSeedSameInputs()
{
    KvMix mix;
    mix.records = 3000;
    mix.threads = 2;
    mix.ops_per_thread = 5000;
    KvInputs a = makeKvInputs(5, mix), b = makeKvInputs(5, mix);
    KvInputs c = makeKvInputs(6, mix);
    expect(a.keys == b.keys && a.key_off == b.key_off &&
               a.arena == b.arena && a.preload == b.preload &&
               a.streams == b.streams && digest(a) == digest(b),
           "kv inputs: same seed gives a byte-identical op stream");
    expect(a.streams != c.streams && digest(a) != digest(c),
           "kv inputs: another seed gives another op stream");

    ChurnMix cm;
    cm.threads = 2;
    cm.episodes = 3;
    cm.iterations_per_thread = 5000;
    ChurnInputs x = makeChurnInputs(5, cm), y = makeChurnInputs(5, cm);
    ChurnInputs z = makeChurnInputs(6, cm);
    bool same = digest(x) == digest(y), other = digest(x) != digest(z);
    for (unsigned e = 0; e < cm.episodes; ++e) {
        same = same && x.episodes[e].fill == y.episodes[e].fill &&
               x.episodes[e].streams == y.episodes[e].streams;
        other = other && x.episodes[e].streams != z.episodes[e].streams;
    }
    expect(same && x.episodes[0].streams != x.episodes[1].streams,
           "churn inputs: same seed gives a byte-identical op stream");
    expect(other, "churn inputs: another seed gives another op stream");
}

void
droppedPutCaught()
{
    RunConfig c = smallRun(Workload::KvUpdateHeavy);
    RunReport clean = runBenchmark(c);
    expect(clean.correct && clean.failed == 0,
           "kv oracle passes an untouched run");

    // Client 0's last put is its last write to that key, so skipping
    // it leaves a value that no client wrote last.
    KvInputs in = makeKvInputs(c.seed, kvMixFor(c));
    const std::vector<KvOp> &s = in.streams[0];
    for (size_t i = 0; i < s.size(); ++i)
        if (s[i].len)
            c.drop_put = int64_t(i);
    RunReport dropped = runBenchmark(c);
    expect(!dropped.correct && dropped.failed >= 1,
           "kv oracle catches a dropped put");
}

void
malformedNamesRejected()
{
    MetricSet m;
    expect(m.add("kv.get.wall_p50_us", "us", 1.0),
           "well-formed metric name accepted");
    bool all_refused =
        !m.add("kv get", "us", 1.0) && !m.add("kv.get/p50", "us", 1.0) &&
        !m.add("", "us", 1.0) && !m.add("-lead", "us", 1.0) &&
        !m.add("lat\xc2\xb5s", "us", 1.0) &&
        !m.add(std::string(65, 'a'), "us", 1.0) &&
        !m.add("kv.get.wall_p50_us", "us", 2.0) &&
        !m.add("unit.bad", "u s", 1.0);
    expect(all_refused && m.all().size() == 1,
           "metric names outside [A-Za-z0-9_.-], duplicates and bad "
           "units are rejected");
}

void
nullMallocCounted()
{
    RunConfig c = smallRun(Workload::AllocLargeChurn);
    c.oversize_at = 10;
    RunReport r = runBenchmark(c);
    const Metric *m = r.per_layer.find("failed_op_ratio");
    expect(!r.correct && r.failed == 1 && m &&
               m->value == 1.0 / double(r.attempted),
           "failed_op_ratio counts a null mallocTo");
}

/** Per-layer metrics that are pure counts of the program's own work:
 *  everything but wall-clock times and the tracing overhead. */
bool
countMetric(const std::string &name)
{
    return name.find("wall") == std::string::npos &&
           name.substr(name.size() - 2) != "_s" &&
           name != "trace.overhead_share";
}

void
oneClientCountsRepeat()
{
    for (Workload w : {Workload::KvUpdateHeavy, Workload::KvReadMostly,
                       Workload::AllocLargeChurn}) {
        RunConfig c = smallRun(w);
        RunReport a = runBenchmark(c), b = runBenchmark(c);
        bool same = a.correct && b.correct;
        unsigned compared = 0;
        for (const Metric &ma : a.per_layer.all()) {
            if (!countMetric(ma.name))
                continue;
            const Metric *mb = b.per_layer.find(ma.name);
            ++compared;
            if (!mb || mb->value != ma.value) {
                same = false;
                std::printf("  %s: %.17g vs %.17g\n", ma.name.c_str(),
                            ma.value, mb ? mb->value : -1.0);
            }
        }
        for (const char *name : {"vthroughput_mops", "vlatency_p99_ns",
                                 "pm_bytes_per_user_byte"}) {
            const Metric *ma = a.end_to_end.find(name);
            const Metric *mb = b.end_to_end.find(name);
            ++compared;
            same = same && ma && mb && ma->value == mb->value;
        }
        expect(same && compared > 40,
               std::string(workloadName(w)) +
                   ": 1-client counts and virtual times repeat exactly (" +
                   std::to_string(compared) + " metrics)");
    }
}

} // namespace

int
runSelfTests()
{
    sameSeedSameInputs();
    droppedPutCaught();
    malformedNamesRejected();
    nullMallocCounted();
    oneClientCountsRepeat();
    std::printf("%d self-test failure(s)\n", g_failures);
    return g_failures;
}

} // namespace nvbench
