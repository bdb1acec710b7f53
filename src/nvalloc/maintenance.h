/**
 * @file
 * Per-heap background maintenance service (DESIGN.md §8).
 *
 * The heap's housekeeping — bookkeeping-log fast/slow GC (§5.3),
 * extent decay, media-poison scrubbing, and tcache trimming — used to
 * run entirely inline on the allocating thread: slow GC fired from the
 * append path and the whole set fired from the exhaustion
 * reclaim-then-retry slow path, so fig17 charged every nanosecond of
 * GC to the request path. This service moves that work into bounded
 * *slices* that run off the hot path, jemalloc-background-thread
 * style.
 *
 * Two modes (NvAllocConfig::maintenance_mode):
 *  - Off:    no thread. Slices run when step() is called — by a
 *            test, the bench harness, or the ctl surface — and on
 *            exhaustion, on the calling thread's virtual clock, so
 *            runs are bit-reproducible; the append path keeps its
 *            inline slow GC trigger.
 *  - Thread: a real background thread runs slices, paced by a host
 *            timer and woken early by log occupancy crossing the wake
 *            level, kWakeFraction * gc_threshold (pollLogPressure on
 *            the large-object paths).
 *
 * Exhaustion has one reclaim path in both modes: reclaimSync() runs a
 * forced slice, inline in Off mode; in Thread mode it hands the slice
 * to the worker and returns only once it completed.
 *
 * Pacing inputs: log occupancy vs. gc_threshold, the device's
 * poisoned-line count plus the persistent quarantine depth, and the
 * heap's stats.alloc.failed (a rise between slices triggers
 * cooperative tcache trimming).
 *
 * Epoch-based deferral: slow GC relocates live log entries, so a
 * caller that holds a LogEntryRef across operations (tests, external
 * steppers) pins the epoch with pin()/unpin() (or PinGuard); a slice
 * that wants slow GC while pins are held defers it (MaintDeferred)
 * and retries on a later slice. Internal mutators only touch refs
 * under the large allocator's lock, which every GC entry point also
 * takes, so they never need to pin.
 *
 * Shutdown ordering: NvAlloc::~NvAlloc, simulateCrash() and
 * dirtyRestart() all shut the service down *first*, so no slice can
 * persist into a device being rolled back or torn down; a failed open
 * never starts the thread at all.
 */

#ifndef NVALLOC_NVALLOC_MAINTENANCE_H
#define NVALLOC_NVALLOC_MAINTENANCE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "nvalloc/config.h"
#include "telemetry/counters.h"

namespace nvalloc {

class BookkeepingLog;
class LargeAllocator;
class PmDevice;
class Telemetry;

/** Why the service was woken (TraceOp::MaintWake payload). */
enum class MaintWakeReason : uint8_t
{
    Timer = 0,       //!< Thread-mode poll interval elapsed
    LogPressure = 1, //!< occupancy crossed the wake level
    Reclaim = 2,     //!< exhaustion slow path (reclaimSync)
    Explicit = 3,    //!< ctl "maintenance.wake" / API call
};

class MaintenanceService
{
  public:
    /** Everything a slice touches, provided by the owning NvAlloc.
     *  Callbacks must stay valid until shutdown(). */
    struct Wiring
    {
        PmDevice *dev = nullptr;
        LargeAllocator *large = nullptr;
        BookkeepingLog *log = nullptr; //!< null in in-place/Base mode
        Telemetry *tel = nullptr; //!< stats.maintenance.* land here
        std::function<uint64_t()> failed_allocs;
        std::function<uint64_t()> quarantine_depth;
        std::function<void()> request_trim;
        /** Stage 5: run one bounded patrol-scrub batch (the heap's
         *  incremental metadata walk, auditor.h); returns the number
         *  of items examined. Unset skips the stage. */
        std::function<unsigned()> patrol;
        /** Device ranges the scrub pass must never touch (superblock
         *  root, WAL rings, the log region). */
        std::vector<std::pair<uint64_t, uint64_t>> protected_ranges;
    };

    MaintenanceService() = default;
    ~MaintenanceService();

    MaintenanceService(const MaintenanceService &) = delete;
    MaintenanceService &operator=(const MaintenanceService &) = delete;

    /** Bind to a heap. Copies the maintenance knobs out of `cfg`. */
    void init(Wiring wiring, const NvAllocConfig &cfg);

    /** Spawn the background thread (Thread mode only; no-op in Off
     *  mode and after shutdown()). */
    void start();

    /** Stop and join the background thread; releases any reclaimSync
     *  waiters (they finish their forced slice inline). Idempotent,
     *  and safe to call in any mode. */
    void shutdown();

    /**
     * Run one bounded maintenance slice on the calling thread (the
     * Off-mode driver; also serves ctl "maintenance.step").
     * Returns true if the slice did any work. Respects pause().
     */
    bool step() { return runSlice(/*forced=*/false); }

    /**
     * Suspend slices. Synchronous: an in-flight slice completes
     * before pause() returns, so the heap is maintenance-quiescent
     * afterwards (the auditor relies on this). Counted — nested
     * pause/resume pairs compose.
     */
    void pause();
    void resume();
    bool
    paused() const
    {
        return pause_depth_.load(std::memory_order_relaxed) > 0;
    }

    /** Nudge the Thread-mode worker to run a slice now (asynchronous;
     *  counted in stats.maintenance.wakes in every mode). */
    void wake(MaintWakeReason reason);

    /**
     * The exhaustion slow path's one entry point. Off mode (or Thread
     * mode with no live worker): runs one forced slice inline on the
     * calling thread. Thread mode: wakes the worker and blocks until
     * a forced slice completed, so the caller's retry observes the
     * reclaimed space. Forced slices ignore pause() — the caller is
     * out of memory *now* — and ask for a slow log GC only when it
     * can free a chunk (slowGcFreesChunk), so back-to-back failures
     * do not recopy an already compact log.
     */
    void reclaimSync();

    /**
     * Cheap mutator-side pressure probe: in Thread mode, once log
     * occupancy reaches the wake level the probing thread performs a
     * *synchronous handoff* — it wakes the worker and blocks (wall
     * clock) until one slice completed. Blocking costs the mutator
     * zero *virtual* time, so the GC's modeled nanoseconds land on the
     * worker's clock; without the handoff a starved worker (e.g. a
     * single-core host) loses the race and the append path's inline
     * slow GC charges the mutator anyway. Edge triggered: one handoff
     * per crossing, re-armed when the slice completes.
     */
    void pollLogPressure();

    // ---- epoch-based deferral ---------------------------------------

    /** While any pin is held, slices defer slow GC (the only stage
     *  that relocates live log entries). */
    void pin() { pins_.fetch_add(1, std::memory_order_acq_rel); }
    void unpin() { pins_.fetch_sub(1, std::memory_order_acq_rel); }

    class PinGuard
    {
      public:
        explicit PinGuard(MaintenanceService &s) : s_(s) { s_.pin(); }
        ~PinGuard() { s_.unpin(); }
        PinGuard(const PinGuard &) = delete;
        PinGuard &operator=(const PinGuard &) = delete;

      private:
        MaintenanceService &s_;
    };

    // ---- introspection ----------------------------------------------

    MaintenanceMode mode() const { return mode_; }
    bool
    threadRunning() const
    {
        std::lock_guard<std::mutex> l(mu_);
        return running_;
    }

  private:
    /** Virtual-ns budget of one slice: it stops starting new work
     *  units once the budget is spent (a unit in flight — one slow GC,
     *  one decay tick — always completes). */
    static constexpr uint64_t kSliceBudgetNs = 200'000;

    /** The wake and slow-GC level, as a share of log_gc_threshold:
     *  the service compacts the log *before* the append path's own
     *  inline trigger would fire. */
    static constexpr double kWakeFraction = 0.75;

    bool runSlice(bool forced);
    void threadMain();
    double logOccupancy() const;
    double wakeLevel() const;
    bool logHasGarbage() const;
    bool slowGcFreesChunk() const;

    Wiring w_;
    NvAllocConfig cfg_;
    MaintenanceMode mode_ = MaintenanceMode::Off;
    bool wired_ = false;

    /** Mutated only under slice_mu_ (pause/resume), so quiescence
     *  ordering flows through the mutex; atomic only so paused() can
     *  be probed lock-free. */
    std::atomic<int> pause_depth_{0};
    std::atomic<uint64_t> pins_{0};
    std::atomic<bool> wake_armed_{false}; //!< pressure-wake edge latch

    // Thread-mode handshake state, guarded by mu_. thread_ itself is
    // only assigned/moved under mu_ and joined by the one shutdown()
    // call that claimed it, so joinable()/join() never race; liveness
    // checks go through running_ instead of thread_.joinable().
    mutable std::mutex mu_;
    std::condition_variable cv_;      //!< work signal
    std::condition_variable done_cv_; //!< cycle-completion signal
    bool stop_ = false;
    bool running_ = false; //!< worker spawned and not yet shut down
    bool force_pending_ = false;
    uint64_t wake_pending_ = 0;
    uint64_t forced_done_ = 0;
    uint64_t slices_done_ = 0; //!< all worker slices, forced or not
    std::thread thread_;

    /** Serializes slices against each other and against pause(); also
     *  guards the slice-local pacing state below. */
    std::mutex slice_mu_;
    uint64_t last_failed_allocs_ = 0;

    void count(StatCounter c, uint64_t n = 1);
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_MAINTENANCE_H
