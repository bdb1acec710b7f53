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
 * arbitrarily far apart. Holds are still booked in the order host
 * threads reach the server, so when contending holds share a window,
 * which of them waits follows the host's lock hand-offs.
 *
 * Each server's window ring is guarded by a HostLock
 * (common/host_lock.h), which spins before it parks. The host lock
 * decides only that booking order and the wall time a booking takes,
 * never what a booking costs in virtual time.
 *
 * Time is also broken down by TimeKind so the Fig. 11 execution-time
 * breakdowns (FlushMeta / FlushWAL / Search / Other) fall out of the
 * same accounting.
 */

#ifndef NVALLOC_PM_VCLOCK_H
#define NVALLOC_PM_VCLOCK_H

#include <array>
#include <cstdint>
#include <memory>

#include "common/host_lock.h"

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
 */
class VServer
{
  public:
    explicit VServer(unsigned units = 1, uint64_t window_ns = 200'000);

    /** Book a hold; returns its virtual start time (>= arrival). */
    uint64_t reserve(uint64_t arrival, uint64_t hold_ns);

    void reset();

  private:
    static constexpr unsigned kWindows = 512;

    HostLock mutex_; //!< guards the window ring for one booking
    uint64_t window_ns_;
    uint64_t capacity_; //!< busy-ns capacity per window
    std::unique_ptr<uint64_t[]> busy_;  //!< by window % kWindows
    std::unique_ptr<uint64_t[]> tag_;   //!< absolute window index
    bool touched_ = false;

    uint64_t &slotBusy(uint64_t window);
};

} // namespace nvalloc

#endif // NVALLOC_PM_VCLOCK_H
