#include "telemetry/telemetry.h"

#include <algorithm>

namespace nvalloc {

namespace {

/** Thread-local cache entry: one per live Telemetry instance this
 *  thread has recorded into. */
struct TlRef
{
    const Telemetry *owner = nullptr;
    uint64_t generation = 0;
    Telemetry::Shard *shard = nullptr;
};

thread_local std::vector<TlRef> tl_refs;

// Generations are process-wide and never reused, so a Telemetry
// constructed at a destroyed instance's address cannot inherit its
// cached shards (same scheme as LatencyModel::ThreadState).
std::atomic<uint64_t> g_generation{1};

} // namespace

Telemetry::Telemetry()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed))
{
}

constinit thread_local Telemetry::FastRef Telemetry::tl_fast_{
    nullptr, 0, nullptr};

Telemetry::Shard *
Telemetry::shardSlow()
{
    for (auto &ref : tl_refs) {
        if (ref.owner == this && ref.generation == generation_) {
            tl_fast_ = FastRef{this, generation_, ref.shard};
            return ref.shard;
        }
    }
    Shard *s = registerShard();
    tl_fast_ = FastRef{this, generation_, s};
    // Reuse a slot whose owner died (stale generation) before growing.
    for (auto &ref : tl_refs) {
        if (ref.owner == this) {
            ref = TlRef{this, generation_, s};
            return s;
        }
    }
    tl_refs.push_back(TlRef{this, generation_, s});
    return s;
}

Telemetry::Shard *
Telemetry::registerShard()
{
    std::lock_guard<std::mutex> g(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    Shard *s = shards_.back().get();
    s->id = static_cast<uint32_t>(shards_.size() - 1);
    if (tracing_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> rg(s->ring_mutex);
        s->ring = std::make_unique<EventRing>(
            trace_cap_.load(std::memory_order_relaxed));
    }
    return s;
}

void
Telemetry::traceInto(Shard *s, TraceOp op, uint64_t arg,
                     uint8_t size_class, uint16_t outcome)
{
    if (!tracing_.load(std::memory_order_relaxed))
        return;
    TraceEvent e;
    e.ts = VClock::now();
    e.arg = arg;
    e.shard = s->id;
    e.op = op;
    e.size_class = size_class;
    e.outcome = outcome;
    std::lock_guard<std::mutex> g(s->ring_mutex);
    size_t cap = trace_cap_.load(std::memory_order_relaxed);
    if (!s->ring || s->ring->capacity() != cap)
        s->ring = std::make_unique<EventRing>(cap);
    s->ring->record(e);
}

uint64_t
Telemetry::total(StatCounter ctr) const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        sum += s->c[idx(ctr)].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::classAllocs(unsigned cls) const
{
    if (cls >= kNumSizeClasses)
        return 0;
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        sum += s->cls_alloc[cls].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::classFrees(unsigned cls) const
{
    if (cls >= kNumSizeClasses)
        return 0;
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        sum += s->cls_free[cls].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::failedBy(unsigned status) const
{
    if (status >= kTelemetryMaxStatuses)
        return 0;
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        sum += s->failed_by[status].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::failedAllocs() const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        for (unsigned r = 0; r < kTelemetryMaxStatuses; ++r)
            sum += s->failed_by[r].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::smallAllocs() const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        for (unsigned c = 0; c < kNumSizeClasses; ++c)
            sum += s->cls_alloc[c].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::smallFrees() const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_)
        for (unsigned c = 0; c < kNumSizeClasses; ++c)
            sum += s->cls_free[c].load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Telemetry::tcacheHits() const
{
    uint64_t allocs = 0, misses = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_) {
        for (unsigned c = 0; c < kNumSizeClasses; ++c)
            allocs += s->cls_alloc[c].load(std::memory_order_relaxed);
        misses += s->c[idx(StatCounter::TcacheMiss)].load(
            std::memory_order_relaxed);
    }
    return allocs > misses ? allocs - misses : 0;
}

uint64_t
Telemetry::smallAllocBytes() const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_) {
        for (unsigned c = 0; c < kNumSizeClasses; ++c)
            sum += s->cls_alloc[c].load(std::memory_order_relaxed) *
                   classToSize(c);
    }
    return sum;
}

uint64_t
Telemetry::smallFreeBytes() const
{
    uint64_t sum = 0;
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_) {
        for (unsigned c = 0; c < kNumSizeClasses; ++c)
            sum += s->cls_free[c].load(std::memory_order_relaxed) *
                   classToSize(c);
    }
    return sum;
}

unsigned
Telemetry::shardCount() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return static_cast<unsigned>(shards_.size());
}

void
Telemetry::startTracing(size_t per_thread_capacity)
{
    if (per_thread_capacity == 0)
        per_thread_capacity = 1;
    std::lock_guard<std::mutex> g(mutex_);
    trace_cap_.store(per_thread_capacity, std::memory_order_relaxed);
    for (auto &s : shards_) {
        std::lock_guard<std::mutex> rg(s->ring_mutex);
        s->ring = std::make_unique<EventRing>(per_thread_capacity);
    }
    tracing_.store(true, std::memory_order_release);
}

void
Telemetry::stopTracing()
{
    tracing_.store(false, std::memory_order_relaxed);
}

uint64_t
Telemetry::drainEvents(std::vector<TraceEvent> &out) const
{
    uint64_t dropped = 0;
    size_t first = out.size();
    std::lock_guard<std::mutex> g(mutex_);
    for (const auto &s : shards_) {
        std::lock_guard<std::mutex> rg(s->ring_mutex);
        if (!s->ring)
            continue;
        s->ring->drainInto(out);
        dropped += s->ring->dropped();
    }
    std::stable_sort(out.begin() + first, out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });
    return dropped;
}

} // namespace nvalloc
