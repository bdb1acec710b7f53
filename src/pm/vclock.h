/**
 * @file
 * Virtual time.
 *
 * The paper reports thread-scaling curves measured on a 40-core Optane
 * machine. This reproduction runs on arbitrary hosts (including a
 * single core), so wall-clock time cannot reproduce those curves.
 * Instead every thread carries a *virtual clock*: modeled persistent
 * memory stalls and modeled CPU work advance it, and the harness
 * reports throughput as ops / makespan of the per-thread virtual
 * clocks.
 *
 * Serialized resources (arena locks, the XPBuffer's drain bandwidth)
 * are modeled by VServer, a *windowed capacity server*: virtual time
 * is divided into fixed windows and each server tracks how many
 * busy-nanoseconds of its capacity each window has consumed. A hold is
 * placed into the first window at or after its arrival time with
 * spare capacity; whatever does not fit spills forward. Queueing
 * delay is therefore a function of virtual-time utilization, which
 * keeps the model sound on a single core where threads' clocks drift
 * arbitrarily far apart.
 *
 * A VServer takes no host lock. Each window is one atomic word, and a
 * booking claims its share of a window with one compare-and-swap
 * (one more per window it spills into). Holds are booked in the order
 * host threads win those CASes, so when contending holds share a
 * window, which of them waits follows the host's interleaving; the
 * host decides only that order, never what a booking costs.
 *
 * Time is also broken down by TimeKind so the Fig. 11 execution-time
 * breakdowns (FlushMeta / FlushWAL / Search / Other) fall out of the
 * same accounting.
 */

#ifndef NVALLOC_PM_VCLOCK_H
#define NVALLOC_PM_VCLOCK_H

#include <array>
#include <atomic>
#include <cstdint>

namespace nvalloc {

/** Attribution buckets for virtual time (paper Fig. 11). */
enum class TimeKind : unsigned
{
    FlushMeta = 0, //!< flushing slab bitmaps / headers / extent meta
    FlushWal,      //!< flushing write-ahead-log entries
    FlushLog,      //!< flushing bookkeeping-log entries
    FlushData,     //!< flushing user data (attach pointers etc.)
    Fence,         //!< store fences
    Search,        //!< extent search / split / coalesce work
    PmRead,        //!< persistent memory read stalls (cache misses)
    LockWait,      //!< modeled queueing on locks / media bandwidth
    Other,         //!< everything else (list ops, tcache ops, ...)
    NumKinds,
};

constexpr unsigned kNumTimeKinds =
    static_cast<unsigned>(TimeKind::NumKinds);

/** Per-thread virtual clock with per-kind attribution. */
class VClock
{
  public:
    /** Virtual nanoseconds elapsed on this thread since reset(). */
    static uint64_t now();

    /** Advance this thread's clock, attributing to `kind`. */
    static void advance(uint64_t ns, TimeKind kind);

    /** Jump this thread's clock forward to `t` if t is later; the gap
     *  is attributed to `kind` (used for modeled queueing delay). */
    static void advanceTo(uint64_t t, TimeKind kind);

    /** Zero this thread's clock and its per-kind buckets. */
    static void reset();

    /**
     * Set the clock without attributing time anywhere. Benchmark
     * workers start their clocks at a common phase base so
     * virtual-time resources stay meaningful across phases; the
     * harness measures deltas.
     */
    static void setNow(uint64_t t);

    /** Time attributed to one kind on this thread. */
    static uint64_t kindTotal(TimeKind kind);

    /** Snapshot all buckets of this thread. */
    static std::array<uint64_t, kNumTimeKinds> snapshot();
};

/**
 * Windowed capacity server modeling a serially-reusable resource (or
 * `units` parallel copies of one, for the media-bandwidth pool).
 *
 * reserve(arrival, hold) books `hold` busy-nanoseconds starting at the
 * first window >= arrival with spare capacity and returns the virtual
 * start time; the caller advances its own clock by (start - arrival)
 * + hold (or just the wait, if the hold already elapsed naturally, as
 * VLock does).
 *
 * The windows live in a ring of kWindows atomic words, created on the
 * first booking. Window w owns word w % kWindows, which packs the
 * window's ring epoch (w / kWindows, high 32 bits) with the busy-ns
 * booked in it (low 32 bits). A word holding another epoch reads as
 * an empty window, and the booking that claims it installs its own
 * epoch. Thread-safe without a lock: concurrent bookings are ordered
 * per window by their CASes, and a booking that spills is not atomic
 * across its windows.
 */
class VServer
{
  public:
    explicit VServer(unsigned units = 1, uint64_t window_ns = 200'000);
    ~VServer();

    VServer(const VServer &) = delete;
    VServer &operator=(const VServer &) = delete;

    /** Book a hold; returns its virtual start time (>= arrival). */
    uint64_t reserve(uint64_t arrival, uint64_t hold_ns);

    /**
     * Bookings that arrived behind the ring's horizon: their first
     * window's word already held a later epoch, at least kWindows
     * windows ahead. Such a booking is served as if its window were
     * idle and overwrites the later window's bookings.
     */
    uint64_t
    lateBookings() const
    {
        return late_.load(std::memory_order_relaxed);
    }

    /** Forget every booking and the late count. Not safe against
     *  concurrent bookings: call it between phases. */
    void reset();

  private:
    static constexpr unsigned kWindows = 512;

    std::atomic<uint64_t> *words();

    const uint64_t window_ns_;
    const uint64_t units_;
    const uint64_t capacity_; //!< busy-ns capacity per window, < 2^32
    std::atomic<std::atomic<uint64_t> *> ring_{nullptr};
    std::atomic<uint64_t> late_{0};
};

} // namespace nvalloc

#endif // NVALLOC_PM_VCLOCK_H
