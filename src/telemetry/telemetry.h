/**
 * @file
 * Sharded runtime statistics and event tracing.
 *
 * One Telemetry instance per heap. Every thread that touches the heap
 * lazily registers a private *shard* — a cache-line-friendly block of
 * relaxed atomic counters plus an optional trace ring — and all hot
 * -path recording is a handful of relaxed loads/stores into that
 * shard. Only the shard's owning thread ever writes it, so increments
 * need no read-modify-write; aggregation sums relaxed loads across
 * shards and never blocks recording threads (a thread takes the
 * registry lock once, on its first touch of the heap).
 *
 * Overhead control:
 *  - tracing: the per-thread event rings cost nothing until
 *    startTracing() arms them;
 *  - derived totals: the hot path maintains only the per-class,
 *    per-reason and event counters; every total that can be summed
 *    out of those (alloc.small, tcache.hit, alloc.failed) is computed
 *    at read time instead of bumped per event.
 *
 * Flushes and fences are not counted here: the PM model's
 * LatencyModel counts them in per-thread blocks of its own, and the
 * heap reads its stats.flush.* leaves from there.
 */

#ifndef NVALLOC_TELEMETRY_TELEMETRY_H
#define NVALLOC_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/size_classes.h"
#include "pm/vclock.h"
#include "telemetry/counters.h"
#include "telemetry/event_ring.h"

namespace nvalloc {

class Telemetry final
{
  public:
    Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    // ------------------------------------------------------------------
    // Hot-path recording (one shard lookup per call, relaxed stores).
    // ------------------------------------------------------------------

    /** Small allocation served: one shard lookup for the whole record
     *  — class count plus the (rare) tcache miss. The small-alloc
     *  total and the tcache hit count are derived at read time, so
     *  the steady state is a single counter store. */
    void
    noteSmallAlloc(unsigned cls, bool tcache_hit, uint64_t off)
    {
        Shard *s = hot();
        bump(s->cls_alloc[cls]);
        if (!tcache_hit)
            bump(s->c[idx(StatCounter::TcacheMiss)]);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::Alloc, off,
                      static_cast<uint8_t>(cls), 0);
    }

    void
    noteSmallFree(unsigned cls, uint64_t off)
    {
        Shard *s = hot();
        bump(s->cls_free[cls]);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::Free, off,
                      static_cast<uint8_t>(cls), 0);
    }

    void
    noteLargeAlloc(uint64_t bytes, uint64_t off)
    {
        Shard *s = hot();
        bump(s->c[idx(StatCounter::AllocLarge)]);
        bump(s->c[idx(StatCounter::LargeAllocBytes)], bytes);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::Alloc, off, 0xff, 0);
    }

    void
    noteLargeFree(uint64_t bytes, uint64_t off)
    {
        Shard *s = hot();
        bump(s->c[idx(StatCounter::FreeLarge)]);
        bump(s->c[idx(StatCounter::LargeFreeBytes)], bytes);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::Free, off, 0xff, 0);
    }

    /** Failed allocation, counted under its NvStatus code (codes past
     *  the family's end share its last cell). */
    void
    noteAllocFailed(uint16_t status)
    {
        Shard *s = hot();
        bump(s->failed_by[status < kTelemetryMaxStatuses
                              ? status
                              : kTelemetryMaxStatuses - 1]);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::AllocFail, 0, 0xff, status);
    }

    void
    noteInvalidFree(uint64_t off, uint16_t status)
    {
        Shard *s = hot();
        bump(s->c[idx(StatCounter::InvalidFree)]);
        if (tracing_.load(std::memory_order_relaxed)) [[unlikely]]
            traceInto(s, TraceOp::InvalidFree, off, 0xff, status);
    }

    /** Bump a scalar counter by `n`. */
    void
    add(StatCounter ctr, uint64_t n = 1)
    {
        bump(hot()->c[idx(ctr)], n);
    }

    /** Record a trace event with no counter attached (refills, GC,
     *  mode changes, recovery). No-op unless tracing is armed. */
    void
    event(TraceOp op, uint64_t arg, uint8_t size_class = 0xff,
          uint16_t outcome = 0)
    {
        if (!tracing_.load(std::memory_order_relaxed))
            return;
        traceInto(hot(), op, arg, size_class, outcome);
    }

    // ------------------------------------------------------------------
    // Aggregated reads (sum of relaxed loads over all shards).
    // ------------------------------------------------------------------

    uint64_t total(StatCounter ctr) const;
    uint64_t classAllocs(unsigned cls) const;
    uint64_t classFrees(unsigned cls) const;
    /** Failed allocations recorded under NvStatus code `status`. */
    uint64_t failedBy(unsigned status) const;

    /** Derived totals the hot path does not maintain as scalars:
     *  small allocs/frees sum the per-class family, tcache hits are
     *  small allocs minus recorded misses, and failed allocs sum the
     *  by-reason family. */
    uint64_t smallAllocs() const;
    uint64_t smallFrees() const;
    uint64_t tcacheHits() const;
    uint64_t failedAllocs() const;

    /** Bytes ever handed out / taken back through the small path
     *  (computed from the per-class counts at read time, so the hot
     *  path never does a multiply). */
    uint64_t smallAllocBytes() const;
    uint64_t smallFreeBytes() const;

    /** Shards registered so far (threads that touched the heap). */
    unsigned shardCount() const;

    // ------------------------------------------------------------------
    // Event tracing.
    // ------------------------------------------------------------------

    /**
     * Arm every shard (current and future) with a ring of
     * `per_thread_capacity` events. Restarting while armed discards
     * buffered events and applies the new capacity.
     */
    void startTracing(size_t per_thread_capacity);

    /** Disarm; buffered events survive until drained or restarted. */
    void stopTracing();

    bool
    tracingEvents() const
    {
        return tracing_.load(std::memory_order_relaxed);
    }

    /**
     * Append all buffered events, merged across shards and sorted by
     * timestamp, to `out`; returns the number of events lost to ring
     * wraparound. Call after stopTracing() for a consistent dump.
     */
    uint64_t drainEvents(std::vector<TraceEvent> &out) const;

    /**
     * This thread's virtual-time attribution buckets. A thin veneer
     * over VClock so harnesses take their Fig. 11 breakdowns from the
     * telemetry layer instead of reaching into the pm layer.
     */
    static std::array<uint64_t, kNumTimeKinds>
    threadTimeBreakdown()
    {
        return VClock::snapshot();
    }

    /** Per-thread counter block. Public only so the .cc's thread-local
     *  cache can name it; not part of the API surface. */
    struct Shard
    {
        std::atomic<uint64_t> c[kNumStatCounters] = {};
        std::atomic<uint64_t> cls_alloc[kNumSizeClasses] = {};
        std::atomic<uint64_t> cls_free[kNumSizeClasses] = {};
        std::atomic<uint64_t> failed_by[kTelemetryMaxStatuses] = {};

        uint32_t id = 0; //!< registration index

        // Trace ring; guarded by ring_mutex (cold unless tracing).
        std::mutex ring_mutex;
        std::unique_ptr<EventRing> ring;
    };

  private:
    static constexpr unsigned
    idx(StatCounter ctr)
    {
        return static_cast<unsigned>(ctr);
    }

    /** Owner-thread increment: the shard is private to this thread,
     *  so a relaxed load+store beats a fetch_add. */
    static void
    bump(std::atomic<uint64_t> &a, uint64_t n = 1)
    {
        a.store(a.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }

    /** Single-entry thread-local shard cache. POD with constant
     *  initialization, so the compiler emits a direct TLS access with
     *  no guard check — this is what keeps the per-record cost at a
     *  couple of compares. Caches the most recently used instance;
     *  alternating between heaps on one thread falls back to the
     *  (short) per-thread registry scan in shardSlow(). */
    struct FastRef
    {
        const Telemetry *owner;
        uint64_t generation;
        Shard *shard;
    };
    static thread_local FastRef tl_fast_;

    /** This thread's shard: the cached one when this instance is the
     *  one it belongs to (same address and generation). */
    Shard *
    hot()
    {
        if (tl_fast_.owner == this && tl_fast_.generation == generation_)
            return tl_fast_.shard;
        return shardSlow();
    }

    Shard *shardSlow();
    Shard *registerShard();
    void traceInto(Shard *s, TraceOp op, uint64_t arg,
                   uint8_t size_class, uint16_t outcome);

    std::atomic<bool> tracing_{false};

    // Shard registry. The mutex serializes registration and trace
    // arm/disarm/drain; recording threads never take it after their
    // first touch. unique_ptr keeps shard addresses stable across
    // vector growth.
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;

    //! Ring capacity while tracing; atomic so traceInto can size a
    //! late-created ring without touching mutex_.
    std::atomic<size_t> trace_cap_{0};

    // Identity of this instance for the thread-local shard cache;
    // process-wide unique so a recycled address can never revive a
    // stale cached shard (same pattern as LatencyModel).
    uint64_t generation_ = 0;
};

} // namespace nvalloc

#endif // NVALLOC_TELEMETRY_TELEMETRY_H
