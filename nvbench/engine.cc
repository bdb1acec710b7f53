/**
 * @file
 * One benchmark run: set-up (timed several times), a closed-loop
 * measured phase with every public call timed from outside in wall and
 * virtual time, the correctness oracle, one dirty restart and reopen
 * from the state the measured phase left (timed), and the oracle again.
 * Counters come from the heap's ctl tree, read before and after the
 * measured phase.
 *
 * A KV measured phase runs for the configured seconds and is cut into
 * 0.5 s windows; the churn runs a fixed op count as a series of
 * episodes, each on a fresh heap and each one window. Wall-clock
 * throughput and latency percentiles are medians over the windows.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include <sys/resource.h>

#include "bench.h"
#include "kv/kv_store.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"
#include "telemetry/telemetry.h"

namespace nvbench {

using nvalloc::KvOptions;
using nvalloc::KvStatus;
using nvalloc::KvStore;
using nvalloc::NvAlloc;
using nvalloc::NvStatus;
using nvalloc::PmDevice;
using nvalloc::PmDeviceConfig;
using nvalloc::ThreadCtx;
using nvalloc::VClock;
using nvalloc::kNumTimeKinds;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

double
toSeconds(int64_t ns)
{
    return double(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---- spans ------------------------------------------------------------

enum class SpanName : uint8_t
{
    SetupPreload,
    KvGet,
    KvPut,
    LargeMalloc,
    LargeFree,
    RecoveryHeapOpen,
    RecoveryKvOpen,
    CheckVerify,
    CheckAudit,
};

const char *
spanName(SpanName n)
{
    switch (n) {
    case SpanName::SetupPreload: return "setup.preload";
    case SpanName::KvGet: return "kv.get";
    case SpanName::KvPut: return "kv.put";
    case SpanName::LargeMalloc: return "alloc.large.malloc";
    case SpanName::LargeFree: return "alloc.large.free";
    case SpanName::RecoveryHeapOpen: return "recovery.heap_open";
    case SpanName::RecoveryKvOpen: return "recovery.kv_open";
    case SpanName::CheckVerify: return "check.verify";
    case SpanName::CheckAudit: return "check.audit";
    }
    return "?";
}

/** Every span the driver records wraps one public call (or one phase
 *  of them) and is a root: parent 0. */
struct Span
{
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t op = 0; //!< client << 40 | op index; 0 for phases
    uint32_t parent = 0;
    SpanName name = SpanName::SetupPreload;
    uint8_t client = 0;
};

/** Length of the windows a timed measured phase is cut into. */
constexpr double kWindowS = 0.5;
constexpr int64_t kWindowNs = int64_t(kWindowS * 1e9);

/** Op spans kept for the written trace: one in this many per client
 *  (every op's span still feeds the per-layer histograms). */
constexpr uint64_t kSpanKeepEvery = 1024;

/** Set-ups timed per KV run (setup_s is their median); the churn
 *  times the set-up of each of its episodes instead. */
constexpr unsigned kKvSetups = 3;

constexpr size_t kDeviceBytes = size_t{4} << 30;

// ---- per-op samples -----------------------------------------------------

/** Two op kinds per workload: get/put on the KV workloads,
 *  malloc/free on the churn. */
struct OpSamples
{
    uint64_t ops = 0;
    uint64_t failed = 0;
    Histogram wall[2];
    Histogram vns[2];
    std::array<uint64_t, kNumTimeKinds> vtime{};
    uint64_t vend = 0;
    int64_t end_ns = 0;
    std::vector<Span> spans;
    /** The measured phase cut into wall-clock windows: ops completed
     *  and their latencies in each (one window when not windowed). */
    int64_t win_start_ns = 0;
    int64_t win_ns = 0;
    std::vector<uint64_t> win_ops;
    std::vector<Histogram> win_wall;

    void
    openWindows(int64_t start_ns, int64_t len_ns, size_t count)
    {
        win_start_ns = start_ns;
        win_ns = len_ns;
        win_ops.assign(count, 0);
        win_wall.assign(count, Histogram());
    }

    void
    record(int kind, int64_t t0, int64_t t1, uint64_t v0, uint64_t v1)
    {
        wall[kind].record(uint64_t(t1 - t0));
        vns[kind].record(v1 - v0);
        size_t w = std::min(size_t((t1 - win_start_ns) / win_ns),
                            win_ops.size() - 1);
        ++win_ops[w];
        win_wall[w].record(uint64_t(t1 - t0));
    }

    void
    merge(const OpSamples &o)
    {
        ops += o.ops;
        failed += o.failed;
        for (int k = 0; k < 2; ++k) {
            wall[k].merge(o.wall[k]);
            vns[k].merge(o.vns[k]);
        }
        if (win_ops.size() < o.win_ops.size()) {
            win_ops.resize(o.win_ops.size(), 0);
            win_wall.resize(o.win_ops.size());
        }
        for (size_t w = 0; w < o.win_ops.size(); ++w) {
            win_ops[w] += o.win_ops[w];
            win_wall[w].merge(o.win_wall[w]);
        }
        for (unsigned i = 0; i < kNumTimeKinds; ++i)
            vtime[i] += o.vtime[i];
        vend = std::max(vend, o.vend);
        end_ns = std::max(end_ns, o.end_ns);
    }
};

/** Time one public call in wall and virtual ns and file it under
 *  `kind`; traced clients also keep a sample of the spans. */
template <bool Traced, typename Fn>
auto
timedOp(OpSamples &s, int kind, SpanName name, unsigned client,
        uint64_t index, Fn &&call)
{
    uint64_t v0 = VClock::now();
    int64_t t0 = nowNs();
    auto result = call();
    int64_t t1 = nowNs();
    uint64_t v1 = VClock::now();
    s.record(kind, t0, t1, v0, v1);
    if constexpr (Traced) {
        if (index % kSpanKeepEvery == 0)
            s.spans.push_back({t0, t1, uint64_t(client) << 40 | index, 0,
                               name, uint8_t(client)});
    }
    return result;
}

// ---- ctl counters -------------------------------------------------------

using Counters = std::map<std::string, uint64_t>;

uint64_t
counter(const Counters &c, const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

const char *const kCtlNames[] = {
    "stats.flush.total",
    "stats.flush.reflush",
    "stats.flush.sequential",
    "stats.flush.random",
    "stats.flush.xpline_hit",
    "stats.flush.fences",
    "stats.wal.commits",
    "stats.tx.commits",
    "stats.tx.aborts",
    "stats.tx.ops_alloc",
    "stats.tx.ops_free",
    "stats.tx.ops_write",
    "stats.alloc.small",
    "stats.tcache.hit",
    "stats.fastpath.reserve_hits",
    "stats.fastpath.reserve_misses",
    "stats.fastpath.cas_retries",
    "stats.fastpath.refill_searches",
    "stats.fastpath.locked_fallbacks",
    "stats.log.fast_gc",
    "stats.log.slow_gc",
    "stats.log.entries_copied",
    "stats.log.gc_ns",
    "stats.log.active_chunks",
    "stats.log.live_entries",
    "stats.degraded.failed_allocs",
    "stats.degraded.reclaim_attempts",
    "stats.kv.gets",
    "stats.kv.hits",
    "stats.kv.key_bytes",
    "stats.kv.value_bytes",
    "stats.heap.peak_committed_bytes",
    "stats.heap.arenas",
};

// ---- one run --------------------------------------------------------------

/** The system under test: device, heap and (KV workloads) store.
 *  Members are destroyed store first, device last. */
struct Rig
{
    std::unique_ptr<PmDevice> dev;
    std::unique_ptr<NvAlloc> heap;
    std::unique_ptr<KvStore> store;
    uint64_t *slots = nullptr; //!< churn: the persistent slot words
    uint64_t vbase = 0; //!< virtual time the last phase ended at
};

/** What the oracle expects in one churn slot. */
struct SlotExpect
{
    uint64_t serial = 0; //!< 0 = slot empty
    uint32_t size = 0;
};

struct BlockStamp
{
    uint64_t magic;
    uint64_t slot;
    uint64_t serial;
    uint64_t size;
};

constexpr uint64_t kStampMagic = 0x4e56424e43485552ULL;

void
stampBlock(void *blk, uint32_t slot, uint64_t serial, uint32_t size)
{
    BlockStamp s{kStampMagic, slot, serial, size};
    std::memcpy(blk, &s, sizeof(s));
    uint64_t tail = serial ^ kStampMagic;
    std::memcpy(static_cast<char *>(blk) + size - sizeof(tail), &tail,
                sizeof(tail));
}

bool
stampOk(const void *blk, uint32_t slot, const SlotExpect &e)
{
    BlockStamp s;
    std::memcpy(&s, blk, sizeof(s));
    uint64_t tail = 0;
    std::memcpy(&tail, static_cast<const char *>(blk) + e.size - 8, 8);
    return s.magic == kStampMagic && s.slot == slot &&
           s.serial == e.serial && s.size == e.size &&
           tail == (e.serial ^ kStampMagic);
}

/** Results of one pass: set-up, measured phase, checks, recoveries. */
struct Pass
{
    bool traced = false;
    OpSamples samples;
    uint64_t vmakespan_ns = 0;
    /** Counter deltas over the measured phases, and the counters as
     *  the last measured phase left them. */
    Counters delta, end;
    uint64_t max_chain = 0;
    double peak_bytes = 0;
    double user_bytes = 0;
    /** Per-window throughput and p99 latency; end-to-end metrics
     *  report their medians. */
    std::vector<double> win_tput, win_p99_us;
    /** One restart per measured phase: one on a KV pass, one per
     *  episode on the churn. */
    std::vector<double> rec_heap_open_s, rec_kv_open_s, rec_total_s;
    std::vector<double> rec_vns;
    uint64_t rec_wal_completions = 0;
};

class Runner
{
  public:
    explicit Runner(const RunConfig &cfg) : cfg_(cfg) {}

    RunReport run();

  private:
    bool kv() const { return cfg_.workload != Workload::AllocLargeChurn; }

    bool
    ready(const Rig &rig) const
    {
        return rig.heap && (kv() ? rig.store != nullptr : rig.slots != nullptr);
    }

    void fail(uint64_t n, std::string why);
    void phaseSpan(SpanName name, int64_t t0, int64_t t1);
    Counters readCounters(NvAlloc &heap);

    Rig setup();
    void preloadKv(Rig &rig);
    void fillChurn(Rig &rig);
    void measure(Rig &rig, Pass &pass);
    template <typename Ops>
    void client(Rig &rig, std::barrier<> &go, OpSamples &s, Ops &&ops);
    template <bool Traced>
    uint64_t kvOps(Rig &rig, ThreadCtx &ctx, unsigned t,
                   const std::atomic<bool> &stop, OpSamples &s);
    template <bool Traced>
    uint64_t churnOps(Rig &rig, ThreadCtx &ctx, unsigned t, OpSamples &s);
    void check(Rig &rig);
    void checkKv(Rig &rig);
    void checkChurn(Rig &rig);
    void recover(Rig &rig, Pass &pass);
    Pass runPass(bool traced);

    void endToEnd(const Pass &p);
    void perLayer(const Pass &p, const Pass *untraced);
    void add(MetricSet &set, const std::string &name,
             const std::string &unit, double v, uint64_t n = 0);
    bool writeTrace() const;

    const RunConfig &cfg_;
    RunReport report_;
    KvInputs kv_in_;
    ChurnInputs churn_in_;
    std::vector<double> setup_open_s_, setup_preload_s_;
    /** Ops each client executed in the current pass (oracle input). */
    std::vector<uint64_t> executed_;
    /** Churn oracle: expected content of every slot. */
    std::vector<SlotExpect> expect_;
    unsigned episode_ = 0; //!< churn episode being run
    unsigned checks_run_ = 0;
    /** Measured-phase clock and windows, set before clients start. */
    int64_t phase_start_ns_ = 0;
    int64_t win_ns_ = 0;
    size_t win_count_ = 1;
    std::vector<Span> spans_;
};

void
Runner::fail(uint64_t n, std::string why)
{
    report_.failed += n;
    report_.correct = false;
    report_.problems.push_back(std::move(why));
}

void
Runner::phaseSpan(SpanName name, int64_t t0, int64_t t1)
{
    spans_.push_back({t0, t1, 0, 0, name, 0});
}

Counters
Runner::readCounters(NvAlloc &heap)
{
    Counters c;
    for (const char *name : kCtlNames) {
        uint64_t v = 0;
        if (heap.ctlRead(name, &v) != NvStatus::Ok)
            fail(1, std::string("ctl name missing: ") + name);
        c[name] = v;
    }
    for (uint64_t i = 0; i < c["stats.heap.arenas"]; ++i) {
        for (const char *leaf : {"refills", "morphs"}) {
            std::string name =
                "stats.arena." + std::to_string(i) + "." + leaf;
            uint64_t v = 0;
            if (heap.ctlRead(name.c_str(), &v) != NvStatus::Ok)
                fail(1, "ctl name missing: " + name);
            c[std::string("arena.") + leaf] += v;
        }
    }
    return c;
}

Rig
Runner::setup()
{
    Rig rig;
    // Every set-up starts its virtual timeline at 0 on a fresh device,
    // so modeled times do not depend on what this thread ran before.
    VClock::setNow(0);
    int64_t t0 = nowNs();
    PmDeviceConfig dcfg;
    dcfg.size = kDeviceBytes;
    rig.dev = std::make_unique<PmDevice>(dcfg);
    // The library's default configuration: NVAlloc-LOG, lock-free fast
    // path, maintenance off, hardening Report, ADR flushes on.
    nvalloc::OpenResult r = NvAlloc::open(*rig.dev);
    if (!r) {
        fail(1, std::string("heap open failed: ") +
                    nvalloc::nvStatusName(r.status));
        return rig;
    }
    rig.heap = std::move(r.heap);
    if (kv()) {
        KvOptions ko;
        ko.buckets = kv_in_.mix.records;
        KvStatus why = KvStatus::Ok;
        rig.store = KvStore::open(*rig.heap, ko, &why);
        if (!rig.store) {
            fail(1, std::string("kv open failed: ") +
                        nvalloc::kvStatusName(why));
            return rig;
        }
    }
    int64_t t1 = nowNs();
    if (kv())
        preloadKv(rig);
    else
        fillChurn(rig);
    int64_t t2 = nowNs();
    phaseSpan(SpanName::SetupPreload, t1, t2);
    setup_open_s_.push_back(toSeconds(t1 - t0));
    setup_preload_s_.push_back(toSeconds(t2 - t1));
    return rig;
}

void
Runner::preloadKv(Rig &rig)
{
    const unsigned threads = cfg_.helpers;
    const uint64_t vstart = VClock::now();
    std::vector<uint64_t> vend(threads, 0);
    std::atomic<uint64_t> failed{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ThreadCtx *ctx = rig.heap->attachThread();
            if (!ctx) {
                failed.fetch_add(1);
                return;
            }
            VClock::setNow(vstart);
            for (uint64_t id = t; id < kv_in_.mix.records; id += threads) {
                KvStatus s = rig.store->put(*ctx, kv_in_.key(uint32_t(id)),
                                            kv_in_.value(kv_in_.preload[id]));
                if (s != KvStatus::Ok)
                    failed.fetch_add(1);
            }
            vend[t] = VClock::now();
            rig.heap->detachThread(ctx);
        });
    }
    for (auto &w : workers)
        w.join();
    if (failed.load())
        fail(failed.load(), "preload puts failed");
    rig.vbase = *std::max_element(vend.begin(), vend.end());
}

void
Runner::fillChurn(Rig &rig)
{
    const ChurnMix &mix = churn_in_.mix;
    const size_t nslots = size_t(mix.threads) * mix.slots_per_thread;
    ThreadCtx *ctx = rig.heap->attachThread();
    if (!ctx) {
        fail(1, "attachThread failed");
        return;
    }
    rig.slots = static_cast<uint64_t *>(rig.heap->mallocTo(
        *ctx, nslots * sizeof(uint64_t), rig.heap->rootWord(0)));
    if (!rig.slots) {
        fail(1, "slot array allocation failed");
        rig.heap->detachThread(ctx);
        return;
    }
    std::memset(rig.slots, 0, nslots * sizeof(uint64_t));
    expect_.assign(nslots, SlotExpect{});
    for (uint32_t j = 0; j < nslots; ++j) {
        uint32_t size = churn_in_.episodes[episode_].fill[j];
        void *blk = rig.heap->mallocTo(*ctx, size, &rig.slots[j]);
        if (!blk) {
            fail(1, "churn fill allocation failed");
            continue;
        }
        uint64_t serial = j + 1;
        stampBlock(blk, j, serial, size);
        expect_[j] = {serial, size};
    }
    rig.heap->detachThread(ctx);
    rig.vbase = VClock::now();
}

/** One closed-loop client: attach, start on the set-up's virtual
 *  clock, wait for the others, run `ops`, record where it ended. */
template <typename Ops>
void
Runner::client(Rig &rig, std::barrier<> &go, OpSamples &s, Ops &&ops)
{
    ThreadCtx *ctx = rig.heap->attachThread();
    VClock::setNow(rig.vbase);
    auto b0 = nvalloc::Telemetry::threadTimeBreakdown();
    s.openWindows(0, win_ns_, win_count_);
    go.arrive_and_wait();
    s.win_start_ns = phase_start_ns_;
    s.ops = ctx ? ops(*ctx) : 0;
    s.end_ns = nowNs();
    s.vend = VClock::now();
    auto b1 = nvalloc::Telemetry::threadTimeBreakdown();
    for (unsigned k = 0; k < kNumTimeKinds; ++k)
        s.vtime[k] = b1[k] - b0[k];
    if (ctx)
        rig.heap->detachThread(ctx);
    else
        s.failed = 1; // counted with the phase's failed ops
}

template <bool Traced>
uint64_t
Runner::kvOps(Rig &rig, ThreadCtx &ctx, unsigned t,
              const std::atomic<bool> &stop, OpSamples &s)
{
    const std::vector<KvOp> &stream = kv_in_.streams[t];
    const uint64_t len = stream.size();
    const uint64_t fixed = cfg_.kv_fixed_ops;
    std::string out;
    uint64_t i = 0;
    for (; fixed ? i < fixed : !stop.load(std::memory_order_relaxed); ++i) {
        const KvOp &op = stream[i % len];
        std::string_view key = kv_in_.key(op.key);
        KvStatus r;
        if (op.len == 0) {
            r = timedOp<Traced>(s, 0, SpanName::KvGet, t, i, [&] {
                return rig.store->get(key, &out);
            });
        } else {
            bool drop = t == 0 && int64_t(i) == cfg_.drop_put;
            r = timedOp<Traced>(s, 1, SpanName::KvPut, t, i, [&] {
                return drop ? KvStatus::Ok
                            : rig.store->put(ctx, key, kv_in_.value(op));
            });
        }
        if (r != KvStatus::Ok)
            ++s.failed;
    }
    return i;
}

template <bool Traced>
uint64_t
Runner::churnOps(Rig &rig, ThreadCtx &ctx, unsigned t, OpSamples &s)
{
    const ChurnMix &mix = churn_in_.mix;
    const std::vector<ChurnOp> &stream =
        churn_in_.episodes[episode_].streams[t];
    uint64_t ops = 0;
    for (uint64_t i = 0; i < stream.size(); ++i) {
        const ChurnOp &op = stream[i];
        const uint32_t slot = t * mix.slots_per_thread + op.slot;
        uint64_t *where = &rig.slots[slot];
        if (*where) {
            NvStatus st = timedOp<Traced>(
                s, 1, SpanName::LargeFree, t, ops,
                [&] { return rig.heap->freeFrom(ctx, where); });
            ++ops;
            if (st != NvStatus::Ok)
                ++s.failed;
            else
                expect_[slot] = SlotExpect{};
        }
        size_t size = episode_ == 0 && t == 0 &&
                              int64_t(i) == cfg_.oversize_at
                          ? kDeviceBytes + 1
                          : op.size;
        void *blk = timedOp<Traced>(
            s, 0, SpanName::LargeMalloc, t, ops,
            [&] { return rig.heap->mallocTo(ctx, size, where); });
        ++ops;
        if (!blk) {
            ++s.failed;
            continue;
        }
        uint64_t serial = (uint64_t(t) + 1) << 40 | (i + 1);
        stampBlock(blk, slot, serial, op.size);
        expect_[slot] = {serial, op.size};
    }
    return ops;
}

void
Runner::measure(Rig &rig, Pass &pass)
{
    const unsigned threads = cfg_.threads;
    // A timed KV phase is cut into windows whose medians are reported;
    // a fixed-count phase (each churn episode) is one window.
    const bool windowed = kv() && !cfg_.kv_fixed_ops;
    win_ns_ = windowed ? kWindowNs : INT64_MAX;
    win_count_ = windowed ? size_t(cfg_.seconds / kWindowS) + 2 : 1;
    const Counters before = readCounters(*rig.heap);
    std::vector<OpSamples> per(threads);
    std::atomic<bool> stop{false};
    std::barrier<> go(threads + 1);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            OpSamples &s = per[t];
            client(rig, go, s, [&](ThreadCtx &ctx) {
                if (kv())
                    return pass.traced ? kvOps<true>(rig, ctx, t, stop, s)
                                       : kvOps<false>(rig, ctx, t, stop, s);
                return pass.traced ? churnOps<true>(rig, ctx, t, s)
                                   : churnOps<false>(rig, ctx, t, s);
            });
        });
    }
    phase_start_ns_ = nowNs();
    go.arrive_and_wait();
    const int64_t start = phase_start_ns_;
    if (kv() && !cfg_.kv_fixed_ops) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg_.seconds));
        stop.store(true, std::memory_order_relaxed);
    }
    for (auto &w : workers)
        w.join();

    OpSamples phase;
    executed_.assign(threads, 0);
    for (unsigned t = 0; t < threads; ++t) {
        executed_[t] = per[t].ops;
        phase.merge(per[t]);
        spans_.insert(spans_.end(), per[t].spans.begin(),
                      per[t].spans.end());
    }
    pass.samples.merge(phase);
    const double wall_s = toSeconds(phase.end_ns - start);
    const size_t full =
        windowed ? std::min(phase.win_ops.size(), size_t(wall_s / kWindowS))
                 : 1;
    const double win_s = windowed ? kWindowS : wall_s;
    for (size_t w = 0; w < full; ++w) {
        pass.win_tput.push_back(ratio(double(phase.win_ops[w]), win_s));
        pass.win_p99_us.push_back(phase.win_wall[w].quantile(0.99) / 1e3);
    }
    pass.vmakespan_ns += phase.vend - rig.vbase;
    rig.vbase = phase.vend;
    if (phase.failed)
        fail(phase.failed, "measured-phase ops failed");

    pass.end = readCounters(*rig.heap);
    for (const auto &[name, v] : pass.end)
        pass.delta[name] += v - counter(before, name);
    pass.peak_bytes +=
        double(counter(pass.end, "stats.heap.peak_committed_bytes"));
    if (kv()) {
        pass.max_chain = rig.store->maxChain();
        pass.user_bytes +=
            double(counter(pass.end, "stats.kv.key_bytes") +
                   counter(pass.end, "stats.kv.value_bytes"));
    } else {
        for (const SlotExpect &e : expect_)
            pass.user_bytes += e.size;
    }
}

void
Runner::checkKv(Rig &rig)
{
    const KvMix &mix = kv_in_.mix;
    const uint64_t records = mix.records;
    const unsigned threads = mix.threads;
    // last[t * records + key]: stream index of client t's last
    // acknowledged put to key, or -1.
    std::vector<int32_t> last(size_t(threads) * records, -1);
    for (unsigned t = 0; t < threads; ++t) {
        const std::vector<KvOp> &s = kv_in_.streams[t];
        uint64_t e = executed_[t], len = s.size();
        for (uint64_t i = e > len ? e - len : 0; i < e; ++i) {
            const KvOp &op = s[i % len];
            if (op.len)
                last[t * records + op.key] = int32_t(i % len);
        }
    }
    // Every key holds its preload value if no client wrote it, else
    // some client's last write.
    std::atomic<uint64_t> wrong{0};
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < cfg_.helpers; ++w) {
        workers.emplace_back([&, w] {
            std::string out;
            for (uint64_t k = w; k < records; k += cfg_.helpers) {
                if (rig.store->get(kv_in_.key(uint32_t(k)), &out) !=
                    KvStatus::Ok) {
                    wrong.fetch_add(1);
                    continue;
                }
                bool written = false, match = false;
                for (unsigned t = 0; t < threads && !match; ++t) {
                    int32_t idx = last[t * records + k];
                    if (idx < 0)
                        continue;
                    written = true;
                    match = out == kv_in_.value(kv_in_.streams[t][idx]);
                }
                if (!written)
                    match = out == kv_in_.value(kv_in_.preload[k]);
                if (!match)
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    if (wrong.load())
        fail(wrong.load(), std::to_string(wrong.load()) +
                               " keys missing or holding a value no "
                               "client wrote last");
    if (rig.store->count() != records)
        fail(1, "record count " + std::to_string(rig.store->count()) +
                    " != " + std::to_string(records));
    if (rig.store->verify() != KvStatus::Ok)
        fail(1, "KvStore::verify failed");
}

void
Runner::checkChurn(Rig &rig)
{
    uint64_t bad = 0;
    for (uint32_t j = 0; j < expect_.size(); ++j) {
        const SlotExpect &e = expect_[j];
        uint64_t off = rig.slots[j];
        if (e.serial == 0 ? off != 0
                          : off == 0 || !stampOk(rig.heap->at(off), j, e))
            ++bad;
    }
    if (bad)
        fail(bad, std::to_string(bad) + " slots lost their block or stamp");
}

void
Runner::check(Rig &rig)
{
    ++checks_run_;
    if (!ready(rig)) {
        fail(1, "heap lost before a check");
        return;
    }
    int64_t t0 = nowNs();
    if (kv())
        checkKv(rig);
    else
        checkChurn(rig);
    int64_t t1 = nowNs();
    nvalloc::AuditReport audit = nvalloc::HeapAuditor(*rig.heap).audit();
    int64_t t2 = nowNs();
    phaseSpan(SpanName::CheckVerify, t0, t1);
    phaseSpan(SpanName::CheckAudit, t1, t2);
    if (audit.violations())
        fail(audit.violations(), "audit: " + audit.summary());
}

/** Crash the heap where the measured phase left it and time its
 *  recovery: heap open (log GC, WAL replay) and the KV index rebuild.
 *  Only the first reopen after a measured phase does that work, so
 *  each phase is followed by exactly one. The teardown of the dead
 *  process's objects is not timed. */
void
Runner::recover(Rig &rig, Pass &pass)
{
    rig.store.reset();
    rig.heap->dirtyRestart();
    rig.heap.reset();
    VClock::setNow(rig.vbase);
    int64_t t0 = nowNs();
    nvalloc::OpenResult o = NvAlloc::open(*rig.dev);
    int64_t t1 = nowNs();
    if (!o) {
        fail(1, std::string("recovery open failed: ") +
                    nvalloc::nvStatusName(o.status));
        return;
    }
    rig.heap = std::move(o.heap);
    if (kv()) {
        KvOptions ko;
        ko.buckets = kv_in_.mix.records;
        ko.create = false;
        KvStatus why = KvStatus::Ok;
        rig.store = KvStore::open(*rig.heap, ko, &why);
        if (!rig.store) {
            fail(1, std::string("kv reopen failed: ") +
                        nvalloc::kvStatusName(why));
            return;
        }
    } else {
        rig.slots =
            static_cast<uint64_t *>(rig.heap->at(*rig.heap->rootWord(0)));
    }
    int64_t t2 = nowNs();
    phaseSpan(SpanName::RecoveryHeapOpen, t0, t1);
    if (kv()) {
        phaseSpan(SpanName::RecoveryKvOpen, t1, t2);
        pass.rec_kv_open_s.push_back(toSeconds(t2 - t1));
    }
    pass.rec_heap_open_s.push_back(toSeconds(t1 - t0));
    pass.rec_total_s.push_back(toSeconds(t2 - t0));
    uint64_t vns = 0, completions = 0;
    rig.heap->ctlRead("stats.recovery.virtual_ns", &vns);
    rig.heap->ctlRead("stats.recovery.wal_completions", &completions);
    pass.rec_vns.push_back(double(vns));
    pass.rec_wal_completions += completions;
}

Pass
Runner::runPass(bool traced)
{
    Pass pass;
    pass.traced = traced;
    // The churn's fixed op count is spread over episodes on fresh
    // heaps; a KV pass is one episode.
    const unsigned episodes = kv() ? 1 : churn_in_.mix.episodes;
    for (episode_ = 0; episode_ < episodes; ++episode_) {
        Rig rig = setup();
        if (!ready(rig))
            break;
        measure(rig, pass);
        check(rig);
        recover(rig, pass);
        check(rig);
    }
    report_.attempted += pass.samples.ops;
    return pass;
}

void
Runner::add(MetricSet &set, const std::string &name,
            const std::string &unit, double v, uint64_t n)
{
    if (!set.add(name, unit, v, n))
        fail(1, "metric rejected: " + name);
}

void
Runner::endToEnd(const Pass &p)
{
    MetricSet &m = report_.end_to_end;
    const OpSamples &s = p.samples;
    Histogram vns = s.vns[0];
    vns.merge(s.vns[1]);
    std::vector<double> setup_s;
    for (size_t i = 0; i < setup_open_s_.size(); ++i)
        setup_s.push_back(setup_open_s_[i] + setup_preload_s_[i]);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    if (cfg_.verbose) {
        auto range = [](const char *what, std::vector<double> v) {
            if (v.empty())
                return;
            std::sort(v.begin(), v.end());
            std::printf("%s: n=%zu min %.6f median %.6f max %.6f s\n", what,
                        v.size(), v.front(), median(v), v.back());
        };
        range("set-up", setup_s);
        range("restart", p.rec_total_s);
    }

    // No median over all op kinds: on the 50/50 get/put mix it falls
    // between the two kinds' latency modes and swung twice as much as
    // either kind's own median (those are per-layer metrics).
    add(m, "throughput_ops_s", "ops/s", median(p.win_tput), s.ops);
    add(m, "latency_p99_us", "us", median(p.win_p99_us), s.ops);
    add(m, "vthroughput_mops", "Mops/s",
        ratio(double(s.ops) * 1e3, double(p.vmakespan_ns)), s.ops);
    add(m, "vlatency_p99_ns", "ns", vns.quantile(0.99), vns.count());
    add(m, "pm_bytes_per_user_byte", "ratio",
        ratio(p.peak_bytes, p.user_bytes));
    add(m, "setup_s", "s", median(setup_s), setup_s.size());
    add(m, "recovery_s", "s", median(p.rec_total_s), p.rec_total_s.size());
    add(m, "peak_rss_mb", "MiB", double(ru.ru_maxrss) / 1024.0);
}

void
Runner::perLayer(const Pass &p, const Pass *untraced)
{
    MetricSet &m = report_.per_layer;
    const OpSamples &s = p.samples;
    const double ops = double(s.ops);
    auto d = [&](const char *name) {
        return double(counter(p.delta, name));
    };
    auto pct = [&](const Histogram &h, double q, double scale) {
        return h.quantile(q) / scale;
    };
    // Op kind 0/1 is get/put on KV workloads, malloc/free on the churn.
    const Histogram empty;
    const Histogram &get = kv() ? s.wall[0] : empty;
    const Histogram &put = kv() ? s.wall[1] : empty;
    const Histogram &put_v = kv() ? s.vns[1] : empty;
    const Histogram &mal = kv() ? empty : s.wall[0];
    const Histogram &fre = kv() ? empty : s.wall[1];
    const Histogram &mal_v = kv() ? empty : s.vns[0];

    // kv
    add(m, "kv.get.wall_p50_us", "us", pct(get, 0.50, 1e3), get.count());
    add(m, "kv.get.wall_p99_us", "us", pct(get, 0.99, 1e3), get.count());
    add(m, "kv.put.wall_p50_us", "us", pct(put, 0.50, 1e3), put.count());
    add(m, "kv.put.wall_p99_us", "us", pct(put, 0.99, 1e3), put.count());
    add(m, "kv.put.vns_p99", "ns", pct(put_v, 0.99, 1.0), put_v.count());
    add(m, "kv.hit_ratio", "ratio",
        ratio(d("stats.kv.hits"), d("stats.kv.gets")),
        uint64_t(d("stats.kv.gets")));
    add(m, "kv.max_chain", "count", double(p.max_chain));

    // tx + wal
    const double puts = double(put.count());
    const double commits = d("stats.tx.commits");
    add(m, "tx.commits_per_put", "ratio", ratio(commits, puts));
    add(m, "tx.ops_per_commit", "ratio",
        ratio(d("stats.tx.ops_alloc") + d("stats.tx.ops_free") +
                  d("stats.tx.ops_write"),
              commits));
    add(m, "tx.aborts", "count", d("stats.tx.aborts"));
    add(m, "wal.commits_per_op", "ratio",
        ratio(d("stats.wal.commits"), ops));

    // alloc.small
    const double hits = d("stats.fastpath.reserve_hits");
    add(m, "alloc.small.per_op", "ratio",
        ratio(d("stats.alloc.small"), ops));
    add(m, "fastpath.reserve_hit_ratio", "ratio",
        ratio(hits, hits + d("stats.fastpath.reserve_misses")));
    add(m, "fastpath.cas_retries_per_op", "ratio",
        ratio(d("stats.fastpath.cas_retries"), ops));
    add(m, "fastpath.refill_searches_per_op", "ratio",
        ratio(d("stats.fastpath.refill_searches"), ops));
    add(m, "fastpath.locked_fallbacks", "count",
        d("stats.fastpath.locked_fallbacks"));
    add(m, "tcache.hit_ratio", "ratio",
        ratio(d("stats.tcache.hit"), d("stats.alloc.small")));
    add(m, "arena.refills", "count", d("arena.refills"));
    add(m, "arena.morphs", "count", d("arena.morphs"));

    // alloc.large + bookkeeping log
    add(m, "alloc.large.malloc.wall_p50_us", "us", pct(mal, 0.50, 1e3),
        mal.count());
    add(m, "alloc.large.malloc.wall_p99_us", "us", pct(mal, 0.99, 1e3),
        mal.count());
    add(m, "alloc.large.free.wall_p50_us", "us", pct(fre, 0.50, 1e3),
        fre.count());
    add(m, "alloc.large.free.wall_p99_us", "us", pct(fre, 0.99, 1e3),
        fre.count());
    add(m, "alloc.large.malloc.vns_p99", "ns", pct(mal_v, 0.99, 1.0),
        mal_v.count());
    const double chunks = double(counter(p.end, "stats.log.active_chunks"));
    add(m, "log.active_chunks_end", "count", chunks);
    add(m, "log.chunks_per_live_entry", "ratio",
        ratio(chunks, double(counter(p.end, "stats.log.live_entries"))));
    add(m, "log.fast_gcs", "count", d("stats.log.fast_gc"));
    add(m, "log.slow_gcs", "count", d("stats.log.slow_gc"));
    add(m, "log.entries_copied_per_op", "ratio",
        ratio(d("stats.log.entries_copied"), ops));
    add(m, "log.gc_vns_per_op", "ns", ratio(d("stats.log.gc_ns"), ops));
    add(m, "degraded.failed_allocs", "count",
        d("stats.degraded.failed_allocs"));
    add(m, "degraded.reclaim_attempts", "count",
        d("stats.degraded.reclaim_attempts"));

    // pm model
    const double flushes = d("stats.flush.total");
    add(m, "pm.flushes_per_op", "ratio", ratio(flushes, ops));
    add(m, "pm.reflush_share", "ratio",
        ratio(d("stats.flush.reflush"), flushes));
    add(m, "pm.sequential_share", "ratio",
        ratio(d("stats.flush.sequential"), flushes));
    add(m, "pm.random_share", "ratio",
        ratio(d("stats.flush.random"), flushes));
    add(m, "pm.xpline_hit_share", "ratio",
        ratio(d("stats.flush.xpline_hit"), flushes));
    add(m, "pm.fences_per_op", "ratio", ratio(d("stats.flush.fences"), ops));
    static const char *const kKinds[kNumTimeKinds] = {
        "flush_meta", "flush_wal", "flush_log", "flush_data", "fence",
        "search",     "pm_read",   "lock_wait", "other"};
    for (unsigned k = 0; k < kNumTimeKinds; ++k)
        add(m, std::string("vtime.") + kKinds[k] + "_ns_per_op", "ns",
            ratio(double(s.vtime[k]), ops));

    // set-up + recovery
    add(m, "setup.heap_open_s", "s", median(setup_open_s_),
        setup_open_s_.size());
    add(m, "setup.preload_s", "s", median(setup_preload_s_),
        setup_preload_s_.size());
    add(m, "recovery.heap_open_s", "s", median(p.rec_heap_open_s),
        p.rec_heap_open_s.size());
    add(m, "recovery.kv_open_s", "s", median(p.rec_kv_open_s),
        p.rec_kv_open_s.size());
    add(m, "recovery.vns", "ns", median(p.rec_vns), p.rec_vns.size());
    add(m, "recovery.wal_completions", "count",
        double(p.rec_wal_completions));

    if (untraced) {
        double base = median(untraced->win_tput);
        double traced = median(p.win_tput);
        add(m, "trace.overhead_share", "ratio",
            base > 0 ? 1.0 - traced / base : 0.0);
    }
}

bool
Runner::writeTrace() const
{
    std::FILE *f = std::fopen(cfg_.trace_out.c_str(), "w");
    if (!f)
        return false;
    // Chrome trace-event format: complete events, microseconds.
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"op\": %llu, \"parent\": %u}}\n",
                     i ? "," : "", spanName(s.name), unsigned(s.client),
                     double(s.start_ns) / 1e3,
                     double(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.op), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

RunReport
Runner::run()
{
    if (kv()) {
        kv_in_ = makeKvInputs(cfg_.seed, kvMixFor(cfg_));
        report_.input_digest = digest(kv_in_);
    } else {
        churn_in_ = makeChurnInputs(cfg_.seed, churnMixFor(cfg_));
        report_.input_digest = digest(churn_in_);
    }
    if (cfg_.verbose)
        std::printf("workload %s seed %llu threads %u: inputs %016llx\n",
                    workloadName(cfg_.workload),
                    static_cast<unsigned long long>(cfg_.seed), cfg_.threads,
                    static_cast<unsigned long long>(report_.input_digest));

    // Extra set-ups, timed for setup_s and torn down again; each pass
    // below times its own set-up as well.
    for (unsigned i = 1; kv() && i < kKvSetups; ++i)
        setup();
    spans_.clear();

    Pass untraced = runPass(false);
    endToEnd(untraced);
    if (cfg_.trace) {
        Pass traced = runPass(true);
        perLayer(traced, &untraced);
    } else {
        perLayer(untraced, nullptr);
    }
    add(report_.per_layer, "failed_op_ratio", "ratio",
        ratio(double(report_.failed), double(report_.attempted)),
        report_.attempted);
    if (report_.attempted == 0)
        fail(1, "no op was attempted");
    if (cfg_.trace && !cfg_.trace_out.empty() && !writeTrace())
        fail(1, "cannot write trace file " + cfg_.trace_out);

    if (cfg_.verbose) {
        report_.end_to_end.print(stdout, "end-to-end:");
        report_.per_layer.print(stdout, cfg_.trace
                                            ? "per-layer (traced pass):"
                                            : "per-layer (untraced pass):");
        std::printf("checks run %u (oracle, audit), problems %zu\n",
                    checks_run_, report_.problems.size());
        std::printf("attempted %llu failed %llu (failed_op_ratio %g)\n",
                    static_cast<unsigned long long>(report_.attempted),
                    static_cast<unsigned long long>(report_.failed),
                    ratio(double(report_.failed),
                          double(report_.attempted)));
        for (const std::string &why : report_.problems)
            std::printf("problem: %s\n", why.c_str());
    }
    return std::move(report_);
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::KvUpdateHeavy: return "kv-update-heavy";
    case Workload::KvReadMostly: return "kv-read-mostly";
    case Workload::AllocLargeChurn: return "alloc-large-churn";
    }
    return "?";
}

bool
parseWorkload(std::string_view name, Workload *out)
{
    for (Workload w : {Workload::KvUpdateHeavy, Workload::KvReadMostly,
                       Workload::AllocLargeChurn}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

KvMix
kvMixFor(const RunConfig &cfg)
{
    KvMix mix;
    mix.records = cfg.records;
    mix.threads = cfg.threads;
    mix.get_percent = cfg.workload == Workload::KvReadMostly ? 95 : 50;
    // A client that runs past the end of its stream replays it; the
    // oracle only needs each client's last write per key.
    mix.ops_per_thread = cfg.kv_fixed_ops ? cfg.kv_fixed_ops : 1u << 21;
    return mix;
}

ChurnMix
churnMixFor(const RunConfig &cfg)
{
    ChurnMix mix;
    mix.threads = cfg.threads;
    mix.episodes = cfg.churn_episodes;
    mix.iterations_per_thread = cfg.churn_iterations;
    return mix;
}

std::string
RunReport::json(const RunConfig &cfg) const
{
    std::string out = "{\"workload\": \"";
    out += workloadName(cfg.workload);
    out += "\", \"seed\": " + std::to_string(cfg.seed) +
           ", \"threads\": " + std::to_string(cfg.threads) +
           ", \"traced\": " + (cfg.trace ? "true" : "false") +
           ", \"correct\": " + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"problems\": " + std::to_string(problems.size()) +
           ", \"end_to_end\": " + end_to_end.json() +
           ", \"per_layer\": " + per_layer.json() + "}\n";
    return out;
}

RunReport
runBenchmark(const RunConfig &cfg)
{
    return Runner(cfg).run();
}

} // namespace nvbench
