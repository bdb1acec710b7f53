/**
 * @file
 * NVAlloc public interface.
 *
 * Usage mirrors the paper's programming model (§4.1):
 *
 *   PmDevice dev;                   // the emulated DIMM / heap file
 *   auto h = NvAlloc::openOrDie(dev); // nvalloc_init (auto-recovers)
 *   NvAlloc &alloc = *h;
 *   ThreadCtx *t = alloc.attachThread();
 *   uint64_t *root = alloc.rootWord(0); // a persistent pointer word
 *   void *p = alloc.mallocTo(*t, 256, root);  // nvalloc_malloc_to
 *   alloc.freeFrom(*t, root);                 // nvalloc_free_from
 *   alloc.detachThread(t);
 *   // destructor == nvalloc_exit (normal shutdown)
 *
 * Persistent structures must store device *offsets* (or OffsetPtr),
 * never raw pointers; mallocTo atomically publishes the new block's
 * offset into a persistent word so a crash can never leak it.
 *
 * Two consistency variants are selected by NvAllocConfig::consistency:
 * NVAlloc-LOG journals every operation in per-thread WALs; NVAlloc-GC
 * skips all small-allocation flushes and relies on a conservative
 * post-crash garbage collection from registered roots.
 */

#ifndef NVALLOC_NVALLOC_NVALLOC_H
#define NVALLOC_NVALLOC_NVALLOC_H

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/radix_tree.h"
#include "nvalloc/arena.h"
#include "nvalloc/auditor.h"
#include "nvalloc/bookkeeping_log.h"
#include "nvalloc/config.h"
#include "nvalloc/hardening.h"
#include "nvalloc/kv_stats.h"
#include "nvalloc/large_alloc.h"
#include "nvalloc/layout.h"
#include "nvalloc/maintenance.h"
#include "nvalloc/status.h"
#include "nvalloc/tcache.h"
#include "nvalloc/tx.h"
#include "nvalloc/wal.h"
#include "pm/pm_device.h"
#include "telemetry/ctl.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

class NvAlloc;
class HeapAuditor;

/** Per-thread state: the tcache and the WAL ring (paper §2.1, §4.1). */
struct ThreadCtx
{
    ThreadCtx(NvAlloc *owner_, Arena *arena_, unsigned stripes,
              bool interleaved, unsigned capacity, unsigned wal_slot_)
        : owner(owner_), arena(arena_),
          tcache(stripes, interleaved, capacity), wal_slot(wal_slot_)
    {
    }

    NvAlloc *owner;
    Arena *arena;
    TCache tcache;
    Wal wal;
    unsigned wal_slot;

    /** Raised by the maintenance service under failed-alloc pressure;
     *  the owning thread honours it on its next tcache miss by
     *  draining the cache (tcaches are thread-private, so trimming is
     *  cooperative by construction). */
    std::atomic<bool> trim_pending{false};

    /** Guard-sampling tick (hardening.h): the guard sampler redirects
     *  this thread's small allocation to a guard extent every
     *  guard_sample_rate-th increment. Thread-private. */
    unsigned guard_tick = 0;

    /** Open-transaction state (tx.h). Thread-private. */
    TxContext tx;

    /** Tx id the internal alloc paths tag their WAL entries with; set
     *  only by the tx layer around its own allocSmall/allocLarge
     *  calls, zero (untagged) for every plain operation. */
    uint32_t journal_tx_id = 0;
};

/**
 * Structured report of what recovery did; returned by lastRecovery().
 * The rejection counters are only non-zero when the heap crashed under
 * fault injection (or real media faults): they record metadata that
 * failed checksum/poison verification and was treated as uncommitted
 * or quarantined rather than trusted.
 */
struct RecoveryInfo
{
    bool performed = false;
    bool after_failure = false;      //!< arena flags were not shutdown
    uint64_t slabs_rebuilt = 0;
    uint64_t extents_rebuilt = 0;
    uint64_t free_extents_rebuilt = 0;
    uint64_t wal_completions = 0;    //!< in-flight ops rolled forward
    uint64_t wal_undos = 0;          //!< in-flight ops rolled back
    uint64_t tx_committed = 0;       //!< in-flight txs rolled forward
    uint64_t tx_rolled_back = 0;     //!< in-flight txs rolled back
    uint64_t wal_rejected = 0;       //!< torn/poisoned WAL entries
    uint64_t log_entries_rejected = 0; //!< bad bookkeeping-log entries
    uint64_t log_chunks_rejected = 0;  //!< bad log chunk headers
    uint64_t slabs_quarantined = 0;  //!< headers refused this recovery
    uint64_t lines_poisoned = 0;     //!< media-poisoned device lines
    uint64_t gc_marked_blocks = 0;   //!< GC variant: reachable blocks
    uint64_t gc_reclaimed_blocks = 0; //!< GC variant: leaked blocks
    uint64_t gc_reclaimed_extents = 0;
    uint64_t virtual_ns = 0;         //!< modeled recovery time
};

/** Public name for the structured recovery report. */
using RecoveryReport = RecoveryInfo;

/**
 * Status-or-heap result of NvAlloc::open(). Exactly one of three
 * shapes:
 *  - status == Ok:              heap is open and fully usable;
 *  - status == InvalidArgument: the config failed validation
 *                               (NvAllocConfig::invalidReason);
 *                               heap is null — nothing was touched;
 *  - status == CorruptMetadata: the superblock, region table or
 *                               log root failed validation; heap
 *                               is non-null but in
 *                               HeapMode::Failed — only read-only
 *                               introspection (ctl, stats, auditor)
 *                               works, which is why it is returned at
 *                               all.
 */
struct OpenResult
{
    NvStatus status = NvStatus::Ok;
    std::unique_ptr<NvAlloc> heap;

    explicit operator bool() const { return status == NvStatus::Ok; }
};

class NvAlloc
{
  public:
    /**
     * The factory: validate `cfg`, then open (or create) an NVAlloc
     * heap on `dev`. If the device root holds a valid superblock,
     * recovery runs: normal-shutdown recovery always, plus WAL replay
     * (LOG) or conservative GC (GC) when the arena flags show a
     * failure (paper §4.4). When cfg.maintenance_mode is Thread, the
     * background maintenance service is running by the time open()
     * returns (never on a failed open). See OpenResult for the
     * outcome shapes.
     */
    static OpenResult open(PmDevice &dev, const NvAllocConfig &cfg = {});

    /**
     * Convenience wrapper over open() for callers that treat an
     * invalid config as a programming error: asserts validation
     * passed and always returns a heap — including a degraded one
     * (openStatus() == CorruptMetadata), whose read-only introspection
     * surface is still usable. This replaces the retired two-step
     * `NvAlloc alloc(dev, cfg)` construction; open() is the factory
     * for callers that want the status handed back instead.
     */
    static std::unique_ptr<NvAlloc>
    openOrDie(PmDevice &dev, const NvAllocConfig &cfg = {});

    /** Normal shutdown (nvalloc_exit): drains live tcaches, persists
     *  GC-variant bitmaps, marks arenas cleanly shut down. */
    ~NvAlloc();

    NvAlloc(const NvAlloc &) = delete;
    NvAlloc &operator=(const NvAlloc &) = delete;

    // ---- threads ----------------------------------------------------

    /**
     * Register the calling thread; assigns the least-loaded arena.
     * Returns nullptr — with lastStatus() = TooManyThreads — when all
     * kMaxThreads WAL slots are in use (detach a thread to free one),
     * or CorruptMetadata when the heap failed to open.
     */
    ThreadCtx *attachThread();

    /** Drain the thread's tcache and release its WAL slot. */
    void detachThread(ThreadCtx *ctx);

    /**
     * Test hook: simulate a power failure. Rolls the device back to
     * its last persisted state (requires shadow mode) and neuters this
     * instance — the destructor will not run shutdown actions, exactly
     * as a killed process would not. Attached ThreadCtx pointers die
     * with the instance.
     */
    void simulateCrash();

    /**
     * Test/benchmark hook: make the next open of this heap take the
     * failure-recovery path without rolling memory back — the arena
     * flags are left at Running and the destructor is neutered, as if
     * the process had been SIGKILLed right after a quiescent point.
     * Unlike simulateCrash(), no shadow device is needed.
     */
    void dirtyRestart();

    // ---- allocation (paper §4.1) ------------------------------------

    /**
     * nvalloc_malloc_to: allocate `size` bytes and atomically publish
     * the block's offset into the persistent word `where` (which must
     * lie inside the device, or be nullptr for a volatile attach —
     * the latter is crash-unsafe in LOG mode and only sound under the
     * GC variant if the block is reachable from a GC root).
     * Returns the mapped address of the new block, or nullptr when the
     * heap is exhausted even after the reclamation slow path (drain
     * this thread's tcache, force a log slow-GC and a decay pass,
     * retry once); lastStatus() then says why and `where` is left
     * untouched.
     */
    void *mallocTo(ThreadCtx &ctx, size_t size, uint64_t *where);

    /** nvalloc_free_from: free the block whose offset is stored in
     *  `where`, atomically clearing the word. Returns InvalidFree —
     *  leaving the heap untouched — for a null/zero word, a double
     *  free, or a foreign pointer. */
    NvStatus freeFrom(ThreadCtx &ctx, uint64_t *where);

    /** Offset-returning variants for callers managing their own
     *  persistent pointers. allocOffset returns 0 on exhaustion. */
    uint64_t allocOffset(ThreadCtx &ctx, size_t size, uint64_t *where);
    NvStatus freeOffset(ThreadCtx &ctx, uint64_t off, uint64_t *where);

    // ---- transactions (tx.h, DESIGN.md §11) -------------------------

    /**
     * Open a transaction on this thread. InvalidArgument when one is
     * already open, when the heap is degraded, or under the GC/IC
     * variants (the tx protocol journals through the per-thread WALs,
     * which only the LOG variant maintains). While the tx is open,
     * plain alloc/free on this ThreadCtx are rejected; commit or abort
     * closes it. Detach and shutdown auto-abort an open tx.
     */
    NvStatus txBegin(ThreadCtx &ctx);

    /** Allocate inside the open tx. The block is durable immediately
     *  but unreachable — its offset is published into `where` only at
     *  commit; a crash before the commit record rolls it back. `where`
     *  is null or a word inside the device: the WAL entry is its only
     *  record, so a volatile word is refused (InvalidArgument). Returns
     *  0 on failure (exhaustion, no open tx, tx full, bad `where`). */
    uint64_t txAlloc(ThreadCtx &ctx, size_t size, uint64_t *where);

    /** Stage a free inside the open tx: validated now (same ordered
     *  validator contract as freeOffset), applied at commit. The block
     *  stays allocated — and rejected by plain free() — until then. */
    NvStatus txFree(ThreadCtx &ctx, uint64_t off);

    /** Transactional 8-byte update of a persistent word inside the
     *  device. The old value is journaled (bounded undo), the new
     *  value lands in place immediately; abort or crash-rollback
     *  restores the old value. */
    NvStatus txWrite(ThreadCtx &ctx, uint64_t *word, uint64_t value);

    /** Commit: one epoch-separated commit record + flush, then apply
     *  (redo the run's entries: publish attach words, perform deferred
     *  frees). After the record's flush returns, the tx is durable — a
     *  crash mid-apply redoes the remainder on recovery. */
    NvStatus txCommit(ThreadCtx &ctx);

    /** Abort: undo the run newest-first (restore words, free staged
     *  allocations), then journal an abort record. */
    NvStatus txAbort(ThreadCtx &ctx);

    TxManager &txManager() { return tx_mgr_; }
    const TxManager &txManager() const { return tx_mgr_; }

    /** C-API helper: record a tx call rejected before a ThreadCtx even
     *  exists (degraded-open heap) so nvalloc_errno reads EINVAL. */
    NvStatus txRejected();

    // ---- roots & helpers --------------------------------------------

    /** One of kNumGcRoots persistent pointer words in the superblock:
     *  both the natural attach target for application top-level
     *  structures and the root set of the GC variant's collector. */
    uint64_t *rootWord(unsigned idx);

    void *
    at(uint64_t off) const
    {
        return dev_.at(off);
    }

    uint64_t
    offsetOf(const void *p) const
    {
        return dev_.offsetOf(p);
    }

    PmDevice &device() { return dev_; }
    const NvAllocConfig &config() const { return cfg_; }
    const RecoveryInfo &lastRecovery() const { return recovery_; }

    // ---- degradation ------------------------------------------------

    /** Why the most recent failing operation failed (sticky, errno
     *  style: successful operations do not reset it). */
    NvStatus
    lastStatus() const
    {
        return last_status_.load(std::memory_order_relaxed);
    }

    /** Outcome of opening the heap: Ok, or CorruptMetadata when the
     *  superblock or log root failed validation — the heap is then in
     *  Failed mode and only read-only introspection works. */
    NvStatus openStatus() const { return open_status_; }

    /** Current degradation mode (normal → reclaiming → exhausted). */
    HeapMode
    mode() const
    {
        return mode_.load(std::memory_order_relaxed);
    }

    // ---- health & containment (pool.h, DESIGN.md §12) ---------------

    /** Current health state. Serving unless the patrol scrubber is
     *  mid-walk (Scrubbing) or corruption was detected (Degraded /
     *  Quarantined). */
    HeapHealth
    health() const
    {
        return health_.load(std::memory_order_relaxed);
    }

    /**
     * Record detected corruption: transition the health machine upward
     * (never downward — Quarantined sticks until restoreHealth), bump
     * stats.health.escalations and notify the health hook (the owning
     * HeapPool). Called by the hardened-free pipeline (Degraded), the
     * patrol scrubber and the auditor (Quarantined), and recovery
     * (Quarantined on a failed open). Idempotent per state.
     */
    void escalateHealth(HeapHealth to, const char *reason);

    /**
     * After external repair (HeapAuditor::repair / nvalloc_fsck): run
     * a fresh audit; when clean, return the heap to Serving and
     * Ok — otherwise keep the current state and return
     * CorruptMetadata. The one sanctioned downward transition.
     */
    NvStatus restoreHealth();

    /** Pool subscription: called on every upward health transition,
     *  from the detecting thread — possibly under heap locks (the
     *  patrol escalates under its own mutex), so the hook must
     *  record-and-return, never call back into the heap.
     *  Set before traffic starts; not synchronized against in-flight
     *  escalation. */
    using HealthHook = std::function<void(HeapHealth, const char *)>;
    void setHealthHook(HealthHook hook) { health_hook_ = std::move(hook); }

    /**
     * One bounded patrol-scrub batch (auditor.h): maintenance stage 5
     * calls this from its slice; tests and tools may drive it
     * directly. Publishes Scrubbing while walking, feeds
     * stats.scrub.*, and escalates stable findings. Returns the number
     * of metadata items examined.
     */
    unsigned patrolSlice();

    /** True if recovery quarantined the slab at device offset `off`
     *  (this run or any earlier one — the list is persistent). */
    bool isQuarantined(uint64_t off) const;

    /** The persistent quarantine list: slabs whose headers could not
     *  be trusted after a crash. Their 64 KB is deliberately leaked. */
    std::vector<uint64_t> quarantinedSlabs() const;

    /** Device offset of thread slot `slot`'s WAL ring (fault-injection
     *  tests corrupt entries through this). */
    uint64_t
    walRingOffset(unsigned slot) const
    {
        return sb_->wal_off + uint64_t(slot) * kWalRingBytes;
    }

    // ---- maintenance ------------------------------------------------

    /** The background maintenance service (DESIGN.md §8). In Off
     *  mode, drive it with maintenance().step(); pin()/PinGuard defer
     *  slow GC while a log-entry reference is held. */
    MaintenanceService &maintenance() { return maint_; }
    const MaintenanceService &maintenance() const { return maint_; }

    /** String-dispatched maintenance control, shared by the ctl
     *  surface ("maintenance.pause" etc. via ctlRead), the C API and
     *  nvalloc_stat: action is "pause", "resume", "step" or "wake".
     *  Returns InvalidArgument — without touching lastStatus() — for
     *  anything else. */
    NvStatus maintenanceControl(const char *action);

    // ---- hardening --------------------------------------------------

    /** The heap-hardening subsystem (hardening.h, DESIGN.md §9):
     *  guard-sampling state, the delayed-reuse quarantine and retained
     *  CorruptionReports (its counters are stats.hardening.*). */
    HardeningManager &hardening() { return hardening_; }
    const HardeningManager &hardening() const { return hardening_; }

    /** Does this heap currently own an allocation at `off` (a slab
     *  block area or an activated extent)? Lock-free and best-effort;
     *  the cross-heap free classifier probes other heaps with it. */
    bool ownsOffset(uint64_t off) const;

    // ---- KV service mount point -------------------------------------

    /**
     * Attach/detach the stats block of a KvStore (src/kv/) living on
     * this heap, surfacing its counters as the stats.kv.* ctl subtree.
     * One store per heap is the expected shape; a second attach simply
     * replaces the pointer. Detach compare-and-swaps so a store never
     * unhooks a successor's block. The registry reads through the
     * atomic pointer and reports zeros while nothing is attached.
     */
    void
    attachKvStats(const KvStats *s)
    {
        kv_stats_.store(s, std::memory_order_release);
    }

    void
    detachKvStats(const KvStats *s)
    {
        const KvStats *cur = s;
        kv_stats_.compare_exchange_strong(cur, nullptr);
    }

    const KvStats *
    kvStats() const
    {
        return kv_stats_.load(std::memory_order_acquire);
    }

    // ---- telemetry / introspection ----------------------------------

    /** The heap's sharded runtime counters and event tracer. */
    Telemetry &telemetry() { return tel_; }
    const Telemetry &telemetry() const { return tel_; }

    /**
     * mallctl-style introspection: read the statistic registered
     * under the dotted `name` ("stats.flush.reflush",
     * "stats.tcache.hit", ...). Returns UnknownCtl — without touching
     * lastStatus() — when no such name exists. The registry is built
     * lazily on first use; names are discoverable via ctl().names().
     */
    NvStatus ctlRead(const char *name, uint64_t *out);

    /** The full dotted-name registry (read-only; for enumeration). */
    const CtlRegistry &ctl();

    /** Statistics snapshot as nested JSON: the whole tree, or the
     *  subtree under `prefix` (CtlRegistry::json). */
    std::string statsJson(std::string_view prefix = {});

    /** WAL commits since open: the sum of every thread ring's append
     *  sequence, plus the rings of threads that have since detached
     *  (the slot's sequence restarts on reattach). Exposed by ctl as
     *  "stats.wal.commits"; derived here instead of counted on the
     *  allocation fast path. */
    uint64_t walCommits();

    LargeAllocator &large() { return large_; }
    BookkeepingLog &bookkeepingLog() { return log_; }
    Arena &arena(unsigned i) { return *arenas_[i]; }
    unsigned numArenas() const { return unsigned(arenas_.size()); }
    RadixTree &slabRadix() { return slab_radix_; }

    /** Slab utilisation histogram for the Fig. 15(b) breakdown:
     *  bucket 0: 0-30%, 1: 30-70%, 2: 70-100% occupancy; returns
     *  bytes of slab space per bucket. */
    std::array<uint64_t, 3> slabUtilizationBytes();

    /**
     * Internal collection (NVAlloc-IC, and available in every
     * variant): enumerate all currently allocated objects —
     * fn(offset, size, is_small). The persistent analogue of PMDK's
     * POBJ_FIRST/POBJ_NEXT: with it, applications never lose a
     * reference to an allocated object even without attach words.
     */
    void forEachAllocated(
        const std::function<void(uint64_t, size_t, bool)> &fn);

  private:
    PmDevice &dev_;
    NvAllocConfig cfg_;
    NvSuperblock *sb_;

    // Declared before every subsystem that records into it so it is
    // destroyed last.
    Telemetry tel_;
    //! The device model's counts when this heap opened; the
    //! stats.flush.* leaves and stats.degraded.media_late_bookings
    //! read the model's counts minus these.
    FlushClassCounts flush_base_;
    uint64_t media_late_base_ = 0;

    BookkeepingLog log_;
    LargeAllocator large_;
    RadixTree slab_radix_;
    std::vector<std::unique_ptr<Arena>> arenas_;

    std::mutex attach_mutex_;
    std::vector<ThreadCtx *> ctxs_;
    std::vector<bool> wal_slot_used_;
    uint64_t wal_retired_commits_ = 0; //!< guarded by attach_mutex_
    unsigned attach_cursor_ = 0;
    std::atomic<unsigned> attached_threads_{0};

    RecoveryInfo recovery_;
    bool crashed_ = false;

    // Degradation state (status.h).
    std::atomic<NvStatus> last_status_{NvStatus::Ok};
    std::atomic<HeapMode> mode_{HeapMode::Normal};
    NvStatus open_status_ = NvStatus::Ok;

    // Health machine + patrol scrub state (DESIGN.md §12). The cursor
    // is guarded by patrol_mu_: stage 5 runs under the maintenance
    // slice lock, but tests/tools may call patrolSlice() directly.
    std::atomic<HeapHealth> health_{HeapHealth::Serving};
    HealthHook health_hook_;
    std::mutex patrol_mu_;
    PatrolCursor patrol_cursor_;

    // Hardening state (guard map, quarantine FIFO, retained reports).
    // Declared after the arenas/large allocator it references; its
    // destructor only frees DRAM — the quarantine is drained
    // explicitly in ~NvAlloc while the arenas still exist.
    HardeningManager hardening_;

    // Transaction bookkeeping (tx.h): open ids and the staged-offset
    // registry the free validator probes.
    TxManager tx_mgr_;

    // The attached KV store's counter block (kv_stats.h); null while
    // no store is mounted on this heap.
    std::atomic<const KvStats *> kv_stats_{nullptr};

    // Dotted-name registry, built on first ctl use (stats.cc); the
    // ~450 readers are not worth constructing for heaps that are
    // never introspected.
    std::once_flag ctl_once_;
    CtlRegistry ctl_;
    void buildCtlRegistry();

    // Declared last so it is destroyed first; the destructor also
    // shuts it down explicitly before touching any other subsystem.
    MaintenanceService maint_;

    friend class HeapAuditor;
    // The pool records an options-mismatch refusal on the existing
    // member's sticky status (failOp) without widening the public API.
    friend class HeapPool;

    /** All construction flows through open()/openOrDie() now; the old
     *  public two-step constructor is retired. */
    explicit NvAlloc(PmDevice &dev, NvAllocConfig cfg);

    bool logMode() const { return cfg_.consistency == Consistency::Log; }
    bool gcMode() const { return cfg_.consistency == Consistency::Gc; }
    bool usesBookkeepingLog() const { return cfg_.log_bookkeeping; }

    void createHeap();
    void recoverHeap();
    void quarantineSlab(uint64_t off);
    void replayWals();
    bool redoEntry(const WalEntry &e);
    bool undoEntry(const WalEntry &e);
    uint64_t *journaledWord(uint64_t off);
    void landWord(uint64_t *w, uint64_t value);
    bool rollForwardAlloc(uint64_t block);
    void conservativeGc();
    void clearWalRings();
    void setArenaStates(ArenaState state);
    VSlab *slabOf(uint64_t off) const;
    void drainTcache(ThreadCtx *ctx);
    void initMaintenance();
    void requestTcacheTrim();
    uint64_t allocSmall(ThreadCtx &ctx, size_t size, uint64_t where_off);
    uint64_t allocLarge(ThreadCtx &ctx, size_t size, uint64_t where_off);

    // Lock-free fast path (DESIGN.md §14).
    unsigned refillSmall(ThreadCtx &ctx, unsigned cls);

    // The free pipeline (nvalloc.cc, DESIGN.md §9): one provenance
    // resolver, one small-block retire, one extent retire.

    /** How a caller drives the free pipeline. */
    enum class FreeMode : uint8_t
    {
        Strict,     //!< plain free: journal, publish, retire; an
                    //!< already-free block is a DoubleFree
        Validate,   //!< txFree: the same checks, nothing changes
        Idempotent, //!< commit apply, rollback, replay: retire without
                    //!< journaling; an already-free block is a no-op
    };

    /** What the pipeline did with one free. */
    enum class FreeResult : uint8_t
    {
        Retired, //!< passed validation (and, unless Validate, retired)
        Leaked,  //!< canary stomp reported, block left allocated
        Refused, //!< rejected — or, idempotently, already free
    };

    struct FreeCall
    {
        ThreadCtx *ctx;     //!< Strict/Validate: journal ring, tcache
        uint64_t off;
        uint64_t *where;    //!< Strict: attach word cleared on retire
        uint64_t where_off; //!< journaled where-offset (Strict)
        FreeMode mode;
    };

    struct SmallFree; //!< gate-step verdict (nvalloc.cc)

    FreeResult freeBlock(const FreeCall &c);
    FreeResult retireSmall(const FreeCall &c, VSlab *slab);
    bool gateRetire(const FreeCall &c, VSlab *slab, bool locked,
                    SmallFree &f);
    FreeResult finishSmall(const FreeCall &c, VSlab *slab,
                           const SmallFree &f);
    FreeResult retireExtent(const FreeCall &c, bool guard);
    FreeResult refuseFree(const FreeCall &c, CorruptionKind kind);
    bool quarantineFrees() const;

    /** Commit apply, rollback and replay: retire `off` if it is still
     *  allocated, unjournaled, never into a tcache. */
    FreeResult
    settleFree(uint64_t off)
    {
        return freeBlock(
            FreeCall{nullptr, off, nullptr, kWalNoWhere,
                     FreeMode::Idempotent});
    }

    // Hardening hooks (nvalloc.cc, hardening.h).
    size_t smallLimit() const;
    bool guardDue(ThreadCtx &ctx);
    uint64_t guardAlloc(ThreadCtx &ctx, size_t size, uint64_t where_off);
    NvStatus rejectFree(uint64_t off, CorruptionKind kind);
    void stampCanary(uint64_t off, unsigned block_size);
    bool canaryOk(uint64_t off, unsigned block_size) const;
    void restampCanaries();

    // Transaction internals (tx.cc).
    void finishTx(ThreadCtx &ctx, bool committed);
    void resolveTxRun(uint64_t ring_off, uint32_t tx_id);

    void publish(uint64_t *where, uint64_t value);
    void reclaimMemory(ThreadCtx &ctx);
    bool refuseUnhealthy();
    uint64_t failAlloc();
    NvStatus failOp(NvStatus why);
    void setMode(HeapMode m);
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_NVALLOC_H
