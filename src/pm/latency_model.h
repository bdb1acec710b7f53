/**
 * @file
 * Flush classification and cost model for emulated persistent memory.
 *
 * Reproduces the performance characteristics the paper builds on:
 *
 *  - Cache line *reflush*: flushing a 64 B line whose reflush distance
 *    (number of distinct lines flushed since its last flush) is < 4 is
 *    far more expensive than a regular flush; latency decreases from
 *    800 ns at distance 0 to 500 ns at distance 3 (paper §3.1).
 *  - Sequential vs random small writes: Optane serves sequential
 *    flushes faster than random ones (paper §3.3, [40]).
 *  - XPBuffer: the DIMM's internal write-combining buffer holds a
 *    limited number of 256 B XPLines; flushes that hit a buffered
 *    XPLine are cheap, misses pay a media write and consume shared
 *    media bandwidth, modeled as a small pool of virtual-time slots.
 *    This reproduces the non-monotone bit-stripe sensitivity of
 *    Fig. 16(a).
 *
 * The model prices ADR flushes and nothing else. A device whose CPU
 * caches are persistent never calls it (see PmDevice).
 *
 * All costs advance the calling thread's VClock. Each thread counts
 * its flushes, by class, and its fences into a block of its own that
 * the model keeps (counts() sums them), so the totals are
 * deterministic for a fixed workload trace and no flush writes a line
 * another thread writes. These blocks are the only flush and fence
 * counters: a heap's stats.flush.* leaves read counts() minus what it
 * read when the heap opened.
 */

#ifndef NVALLOC_PM_LATENCY_MODEL_H
#define NVALLOC_PM_LATENCY_MODEL_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/size_classes.h"
#include "pm/vclock.h"

namespace nvalloc {

/** Tunable constants, all in virtual nanoseconds unless noted. */
struct LatencyParams
{
    // Reflush: cost = reflush_base - reflush_step * distance.
    uint64_t reflush_base = 800;
    uint64_t reflush_step = 100;
    unsigned reflush_window = 4; //!< distance < window => reflush

    uint64_t xpline_hit = 60;    //!< flush into a buffered XPLine
    uint64_t media_seq = 100;    //!< XPLine miss, sequential successor
    uint64_t media_random = 250; //!< XPLine miss, random target
    uint64_t issue = 20;         //!< fixed CPU cost of any clwb
    uint64_t fence = 30;         //!< sfence

    unsigned media_slots = 8;    //!< concurrent media writes (2 DIMMs x 4 WPQ slots)
};

/**
 * Flush and fence counts. Every flush is served in exactly one
 * FlushClass, so the four class counts sum to `total`.
 */
struct FlushClassCounts
{
    uint64_t total = 0;
    uint64_t reflush = 0;
    uint64_t sequential = 0;
    uint64_t random = 0;
    uint64_t xpline_hit = 0;
    uint64_t fences = 0;
};

/** How a flush was served; mirrors the FlushClassCounts buckets. */
enum class FlushClass : unsigned
{
    Reflush = 0,
    Sequential,
    Random,
    XpLineHit,
    NumClasses,
};

constexpr unsigned kNumFlushClasses =
    static_cast<unsigned>(FlushClass::NumClasses);

class LatencyModel
{
  public:
    explicit LatencyModel(LatencyParams params = {});

    /** Charge one 64 B cache-line flush at heap offset `line` (already
     *  line-aligned), attributed to `kind`. */
    void onFlush(uint64_t line, TimeKind kind);

    void onFence();

    const LatencyParams &params() const { return params_; }

    /** Zero the counters, those of exited threads included, and
     *  invalidate all per-thread history. Call it between phases: a
     *  flush racing it may keep a count it made before the reset. */
    void reset();

    /** Sum of every thread's counters since construction or the last
     *  reset(), exited threads included. The only flush and fence
     *  count in the system: a heap's stats.flush.* leaves read it. */
    FlushClassCounts counts() const;

    /** XPLine misses whose media booking landed behind the media
     *  server's horizon (VServer::lateBookings), since construction
     *  or the last reset(). stats.degraded.media_late_bookings reads
     *  it. */
    uint64_t mediaLateBookings() const { return media_.lateBookings(); }

    /**
     * Begin recording flush offsets (for the Fig. 2 scatter). Calling
     * it while a trace is already running restarts the trace: the
     * buffer is cleared and the new capacity applies.
     */
    void startTrace(size_t max_entries);

    /**
     * End the trace and return the recorded offsets. Idempotent and
     * safe without a matching startTrace: a stop when no trace is
     * running (including a second consecutive stop) returns an empty
     * vector and changes nothing.
     */
    std::vector<uint64_t> stopTrace();

    bool tracing() const;

    struct ThreadState;

  private:
    /** One thread's counters, written only by that thread (a relaxed
     *  load + store, no read-modify-write) and on a line of its own. */
    struct alignas(kCacheLine) CountBlock
    {
        //! Indexed by FlushClass; the total is their sum.
        std::atomic<uint64_t> cls[kNumFlushClasses] = {};
        std::atomic<uint64_t> fences{0};
    };

    ThreadState &threadState();
    CountBlock *registerBlock();
    void chargeMedia(uint64_t line, ThreadState &ts, TimeKind kind);
    static void noteClass(FlushClass cls, ThreadState &ts);

    // Read by every flush, written by none: construction fixes
    // params_ and id_; generation_ and tracing_ change only on reset
    // and trace calls.
    const LatencyParams params_;
    //! Process-wide unique identity; a recycled address never matches.
    const uint64_t id_;
    std::atomic<uint64_t> generation_{1};
    std::atomic<bool> tracing_{false};

    // Shared media bandwidth (XPBuffer drain ports): a windowed
    // capacity server with `media_slots` parallel units. Aligned so
    // neither it nor anything below (the trace buffer, written by
    // flushes while tracing) shares a line with the fields above.
    alignas(kCacheLine) VServer media_;

    // Every thread's counters; blocks outlive their threads so
    // counts() keeps what exited threads counted. blocks_mutex_ is
    // taken once per (thread, model) and by counts() and reset().
    mutable std::mutex blocks_mutex_;
    std::deque<CountBlock> blocks_;

    // Optional flush-address trace.
    mutable std::mutex trace_mutex_;
    size_t trace_cap_ = 0;
    std::vector<uint64_t> trace_;
};

} // namespace nvalloc

#endif // NVALLOC_PM_LATENCY_MODEL_H
