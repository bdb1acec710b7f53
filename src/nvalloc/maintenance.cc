#include "nvalloc/maintenance.h"

#include <chrono>

#include "nvalloc/bookkeeping_log.h"
#include "nvalloc/large_alloc.h"
#include "pm/pm_device.h"
#include "pm/vclock.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

MaintenanceService::~MaintenanceService()
{
    shutdown();
}

void
MaintenanceService::init(Wiring wiring, const NvAllocConfig &cfg)
{
    w_ = std::move(wiring);
    cfg_ = cfg;
    mode_ = cfg.maintenance_mode;
    wired_ = w_.large != nullptr;
}

void
MaintenanceService::start()
{
    if (mode_ != MaintenanceMode::Thread || !wired_)
        return;
    std::lock_guard<std::mutex> l(mu_);
    if (stop_ || running_)
        return;
    thread_ = std::thread(&MaintenanceService::threadMain, this);
    running_ = true;
}

void
MaintenanceService::shutdown()
{
    // Claim the thread object under mu_ so no other caller ever races
    // a join (std::thread is not safe for concurrent joinable()/join);
    // a second shutdown() moves an empty thread and is a no-op.
    std::thread worker;
    {
        std::lock_guard<std::mutex> l(mu_);
        stop_ = true;
        running_ = false;
        worker = std::move(thread_);
    }
    cv_.notify_all();
    done_cv_.notify_all();
    if (worker.joinable())
        worker.join();
}

void
MaintenanceService::pause()
{
    // Taking slice_mu_ both waits out an in-flight slice (the caller
    // observes quiescence) and orders that slice's writes before the
    // caller's subsequent unlocked reads; bumping the depth under the
    // lock means every later slice sees it at its own slice_mu_-held
    // check.
    std::lock_guard<std::mutex> g(slice_mu_);
    pause_depth_.fetch_add(1, std::memory_order_relaxed);
}

void
MaintenanceService::resume()
{
    // Dropping the depth under slice_mu_ gives the symmetric edge:
    // the pausing thread's reads happen-before the next slice's
    // writes via the mutex, not via the counter (a lock-free counter
    // handoff would leave the auditor's quiescent walk formally racing
    // the first post-resume slice).
    std::lock_guard<std::mutex> g(slice_mu_);
    pause_depth_.fetch_sub(1, std::memory_order_relaxed);
}

void
MaintenanceService::count(StatCounter c, uint64_t n)
{
    if (w_.tel)
        w_.tel->add(c, n);
}

void
MaintenanceService::wake(MaintWakeReason reason)
{
    count(StatCounter::MaintWake);
    if (w_.tel)
        w_.tel->event(TraceOp::MaintWake, uint64_t(reason));
    if (mode_ != MaintenanceMode::Thread)
        return; // Off mode: the harness drives step() itself
    {
        std::lock_guard<std::mutex> l(mu_);
        ++wake_pending_;
    }
    cv_.notify_all();
}

void
MaintenanceService::reclaimSync()
{
    count(StatCounter::MaintWake);
    if (w_.tel)
        w_.tel->event(TraceOp::MaintWake,
                      uint64_t(MaintWakeReason::Reclaim));

    if (mode_ == MaintenanceMode::Thread) {
        std::unique_lock<std::mutex> l(mu_);
        if (running_ && !stop_) {
            uint64_t target = forced_done_ + 1;
            force_pending_ = true;
            cv_.notify_all();
            done_cv_.wait(l,
                          [&] { return forced_done_ >= target || stop_; });
            if (forced_done_ >= target)
                return;
            // shutdown() raced the request; fall through and do the
            // work inline so the out-of-memory retry still observes a
            // reclamation attempt.
        }
    }

    // Off mode (and Thread mode before start / after shutdown): the
    // deterministic path — one forced slice, caller's clock.
    runSlice(/*forced=*/true);
}

double
MaintenanceService::logOccupancy() const
{
    if (!w_.log)
        return 0.0;
    size_t max = w_.log->maxChunks();
    return max ? double(w_.log->activeChunks()) / double(max) : 0.0;
}

double
MaintenanceService::wakeLevel() const
{
    return kWakeFraction * cfg_.log_gc_threshold;
}

bool
MaintenanceService::logHasGarbage() const
{
    // Slow GC copies every live entry, holding the allocator lock
    // while mutators accrue LockWait — it only pays off when the copy
    // would actually shrink the chunk list. Gate on the dead share of
    // the *current* log (not of capacity, like the append path's
    // inline trigger): a steady-state log whose live set compacts to
    // about as many chunks as it already occupies would otherwise be
    // rewritten on every wake, reclaiming nothing.
    if (!w_.log)
        return false;
    size_t slots = w_.log->activeChunks() * kLogEntriesPerChunk;
    return slots != 0 && w_.log->liveEntries() * 2 <= slots;
}

bool
MaintenanceService::slowGcFreesChunk() const
{
    // Slow GC packs the live entries into ceil(live / chunk) chunks;
    // a log already that small would be copied for nothing.
    size_t live = w_.log->liveEntries();
    return (live + kLogEntriesPerChunk - 1) / kLogEntriesPerChunk <
           w_.log->activeChunks();
}

void
MaintenanceService::pollLogPressure()
{
    if (mode_ != MaintenanceMode::Thread || !wired_ || !w_.log)
        return;
    if (logOccupancy() < wakeLevel() || !logHasGarbage())
        return;
    // Edge trigger: one handoff per crossing; the latch re-arms when
    // the next slice completes.
    if (wake_armed_.exchange(true, std::memory_order_relaxed))
        return;

    count(StatCounter::MaintWake);
    if (w_.tel)
        w_.tel->event(TraceOp::MaintWake,
                      uint64_t(MaintWakeReason::LogPressure));

    // Synchronous handoff (see header): lend the worker this thread's
    // wall time so the slice actually runs, even on a host where the
    // worker is starved. The wait costs no virtual time, which is the
    // entire point — GC nanoseconds accrue on the worker's clock.
    // The wake is registered and the completion target read under ONE
    // mu_ critical section: posting the wake first (as wake() would)
    // lets the worker consume it and finish the slice before we read
    // slices_done_, leaving us waiting on a slice nobody will run
    // until the next timer tick.
    std::unique_lock<std::mutex> l(mu_);
    if (stop_ || !running_)
        return; // append-path inline GC remains the backstop
    ++wake_pending_;
    uint64_t target = slices_done_ + 1;
    cv_.notify_all();
    done_cv_.wait(l, [&] { return slices_done_ >= target || stop_; });
}

bool
MaintenanceService::runSlice(bool forced)
{
    if (!wired_)
        return false;

    std::lock_guard<std::mutex> g(slice_mu_);
    // Checked under slice_mu_ so pause()'s own slice_mu_ acquisition
    // is a real barrier: either pause() bumped pause_depth_ before we
    // took the lock (we see it and back off), or pause() blocks on
    // slice_mu_ until this slice completes. Checking before the lock
    // would let a slice that passed the check run to completion after
    // pause() already returned, breaking the quiescence guarantee the
    // auditor relies on.
    if (!forced && paused())
        return false;
    count(StatCounter::MaintSlice);

    const uint64_t t0 = VClock::now();
    auto budget_left = [&] { return VClock::now() - t0 < kSliceBudgetNs; };
    bool did = false;

    // 1. Bookkeeping-log GC, paced by occupancy against the wake
    //    level (a fraction of the append path's own inline trigger,
    //    so background compaction normally wins the race). Fast GC is
    //    free of PM reads and always worth a pass; slow GC relocates
    //    live entries and therefore honours the pin epoch. A forced
    //    slice wants it whenever it can free a chunk.
    if (w_.log) {
        bool want_slow =
            forced ? slowGcFreesChunk()
                   : logOccupancy() >= wakeLevel() && logHasGarbage();
        if (want_slow && pins_.load(std::memory_order_acquire) != 0) {
            count(StatCounter::MaintDeferred);
            want_slow = false;
        }
        bool ran_slow = false;
        uint64_t gc_ns = 0;
        if (w_.large->maintainLog(want_slow, &ran_slow, &gc_ns))
            did = true;
        count(StatCounter::MaintLogFastGc);
        if (ran_slow)
            count(StatCounter::MaintLogSlowGc);
        if (gc_ns)
            count(StatCounter::MaintGcVirtualNs, gc_ns);
    }

    // 2. Extent decay: demote cooled reclaimed extents, evict
    //    whole-region retained ones (one tick per slice).
    if (forced || budget_left()) {
        w_.large->decayPass();
        count(StatCounter::MaintDecayTick);
    }

    // 3. Poison scrubbing, bounded per slice. Only clearly-dead lines
    //    (outside every live region and every protected range) are
    //    scrubbed here; classifying poison inside live regions needs
    //    the auditor's full walk and stays its job. The quarantine
    //    depth counts as pressure because quarantining correlates
    //    with media faults.
    if ((forced || budget_left()) && w_.dev &&
        (w_.dev->poisonedLineCount() > 0 ||
         (w_.quarantine_depth && w_.quarantine_depth() > 0))) {
        // Bounds the slice even when a fault storm poisons many lines.
        constexpr unsigned kScrubLinesPerSlice = 8;
        unsigned n = w_.large->scrubUnmappedPoison(kScrubLinesPerSlice,
                                                   w_.protected_ranges);
        if (n) {
            did = true;
            count(StatCounter::MaintScrubbedLine, n);
        }
    }

    // 4. Cooperative tcache trimming under failed-alloc pressure:
    //    tcaches are thread-private, so the service only raises a flag
    //    each owner honours on its next cold path.
    uint64_t failed = w_.failed_allocs ? w_.failed_allocs() : 0;
    if ((forced || failed > last_failed_allocs_) && w_.request_trim) {
        w_.request_trim();
        count(StatCounter::MaintTrimRequest);
    }
    last_failed_allocs_ = failed;

    // 5. Online patrol scrub: one bounded batch of the heap's
    //    incremental metadata walk (superblock / region table / slabs
    //    / log chain, auditor.h) against the live mutator. The batch
    //    is item-bounded (NvAlloc::patrolSlice), keeping the vlock hold
    //    times inside the slice budget; findings escalate to the heap
    //    health machine inside the callback.
    if ((forced || budget_left()) && w_.patrol) {
        if (w_.patrol()) {
            did = true;
            count(StatCounter::MaintPatrolSlice);
        }
    }

    wake_armed_.store(false, std::memory_order_relaxed);
    uint64_t spent = VClock::now() - t0;
    count(StatCounter::MaintVirtualNs, spent);
    if (w_.tel)
        w_.tel->event(TraceOp::MaintSlice, spent);
    return did;
}

void
MaintenanceService::threadMain()
{
    // The worker owns its virtual clock: GC time accrues here, not on
    // the allocating threads (the fig17 foreground-vs-background
    // comparison measures exactly this split).
    VClock::reset();

    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
        if (!stop_ && !force_pending_ && wake_pending_ == 0) {
            if (cfg_.maintenance_interval_ms == 0) {
                l.unlock();
                std::this_thread::yield();
                l.lock();
            } else {
                cv_.wait_for(
                    l,
                    std::chrono::milliseconds(
                        cfg_.maintenance_interval_ms),
                    [&] {
                        return stop_ || force_pending_ ||
                               wake_pending_ != 0;
                    });
            }
        }
        if (stop_)
            break;
        bool forced = force_pending_;
        force_pending_ = false;
        wake_pending_ = 0;
        l.unlock();

        runSlice(forced);

        l.lock();
        ++slices_done_;
        if (forced)
            ++forced_done_;
        done_cv_.notify_all();
    }
}

} // namespace nvalloc
