/**
 * @file
 * Build-time-free configuration of an NvAlloc instance.
 *
 * Every optimization of the paper is an independent runtime flag so
 * the Fig. 11 breakdown (Base / +Interleaved / +Log / full), the
 * Fig. 15 morphing ablation, and the Fig. 16 sensitivity sweeps are
 * driven by configuration rather than separate builds.
 */

#ifndef NVALLOC_NVALLOC_CONFIG_H
#define NVALLOC_NVALLOC_CONFIG_H

#include <cstddef>
#include <cstdint>

namespace nvalloc {

/** Crash-consistency model (paper §4.1, Table 2). */
enum class Consistency
{
    Log, //!< NVAlloc-LOG: WAL-based, strongly consistent
    Gc,  //!< NVAlloc-GC: post-crash garbage collection
    /**
     * NVAlloc-IC: internal collection (the paper's stated future
     * work, after PMDK's POBJ_FIRST/POBJ_NEXT model): allocation
     * bits are persisted eagerly like NVAlloc-LOG but no WAL is
     * written — instead the allocator itself can enumerate every
     * allocated object (NvAlloc::forEachAllocated), so a reference
     * can never be lost and replay is unnecessary.
     */
    InternalCollection,
};

/**
 * Where heap housekeeping (bookkeeping-log GC, extent decay, poison
 * scrubbing, tcache trimming) runs; see maintenance.h and DESIGN.md §8.
 * The values are the ones stats.maintenance.mode reports, and the C
 * API's NvMaintenanceMode codes.
 */
enum class MaintenanceMode : uint8_t
{
    Off = 0,    //!< no thread: slices run on step() and on exhaustion
    Thread = 2, //!< a per-heap background thread, woken on pressure
};

/**
 * What a detected corruption (double free, canary stomp, guard
 * redzone hit, ...) does; see hardening.h and DESIGN.md §9.
 */
enum class HardeningPolicy : uint8_t
{
    Report,     //!< count + warn + CorruptionReport; leak the block
    Quarantine, //!< report, then delay the block's reuse in the FIFO
    Abort,      //!< std::abort at the faulting operation
};

struct NvAllocConfig
{
    Consistency consistency = Consistency::Log;

    // §5.1 interleaved mapping / layout.
    bool interleaved_bitmap = true; //!< slab bitmap bit stripes
    bool interleaved_tcache = true; //!< sub-tcache round robin
    bool interleaved_wal = true;    //!< WAL entry striping
    bool interleaved_log = true;    //!< bookkeeping-log entry striping
    unsigned bit_stripes = 6;       //!< paper default (Fig. 16a)

    /**
     * §6.5's future work, implemented: choose the stripe count of
     * each *new* slab from the current thread concurrency. Many
     * concurrent threads already spread flushes across XPLines, so
     * fewer stripes per slab avoid exhausting the XPBuffer; a lone
     * thread gets the full spread. Stripes never drop below 5 (the
     * reflush window is 4). Per-slab geometry is self-describing in
     * the slab header, so mixed-stripe heaps recover fine.
     */
    bool dynamic_stripes = false;

    // §5.2 slab morphing.
    bool slab_morphing = true;
    double morph_threshold = 0.20;  //!< SU, paper default (Fig. 16b)

    // §5.3 log-structured bookkeeping; false = in-place extent
    // headers, the Base configuration of Fig. 11(c) and Fig. 2.
    bool log_bookkeeping = true;

    /** Arenas ≈ CPU cores; the paper's testbed has 20 physical cores
     *  per socket and one arena per core. */
    unsigned num_arenas = 20;

    // The lock-free fast path (core_cache.h, DESIGN.md §14) has no
    // knob: two region slots per class (CoreCache::kRegions) and a
    // 24-block reservation batch (Arena::fastReserve).

    /** Bookkeeping log file size (paper: 100 MB; scaled default). */
    size_t log_file_bytes = 4 * 1024 * 1024;

    /** Slow-GC trigger: live log bytes / log file bytes. */
    double log_gc_threshold = 0.5;

    // The extent decay window is fixed at the paper's (jemalloc's)
    // 50 ms epochs: LargeAllocator::kDecayWindowNs.

    // Runtime statistics have no knob: every heap counts each event
    // once, in its telemetry shards (DESIGN.md §7), and maintenance
    // pacing and the pool read those counters.

    /**
     * When non-zero, event tracing is armed from birth with a
     * per-thread ring of this many events, so heap creation and
     * recovery themselves can be traced. Tracing can also be started
     * later via telemetry().startTracing().
     */
    size_t trace_ring_capacity = 0;

    /**
     * Verify checksums (WAL entries, log chunks/entries, slab
     * headers) while recovering, rejecting torn or poisoned metadata
     * instead of interpreting it. Costs a little recovery-time crc
     * math (Fig. 18 reports both settings); turning it off reverts
     * to trusting the media, which is only safe when crashes land
     * every flush whole and no line is poisoned.
     */
    bool verify_recovery_checksums = true;

    // ---- background maintenance (maintenance.h, DESIGN.md §8) -------
    // A slice's budget (200 virtual µs) and the wake level (0.75 ×
    // log_gc_threshold) are constants of MaintenanceService.

    MaintenanceMode maintenance_mode = MaintenanceMode::Off;

    /** Thread mode: host-time poll cadence between slices when no
     *  wake arrives; 0 busy-polls (benchmarks forcing background GC
     *  to keep up with a fast mutator). */
    unsigned maintenance_interval_ms = 1;

    // ---- heap hardening (hardening.h, DESIGN.md §9) -----------------

    // Every free runs the one validator (DESIGN.md §9); a rejected
    // free is always classified (double/misaligned/wild/cross-heap,
    // stats.hardening.*) and goes through the HardeningPolicy report
    // machinery. The knobs below add detection on top of it.

    /** Redirect one in N small allocations to a guard extent with a
     *  poisoned redzone tail (GWP-ASan style). 0 disables sampling. */
    unsigned guard_sample_rate = 0;

    /**
     * Reserve the last 8 bytes of every small block for a per-block
     * canary word, checked at free and by the auditor. Recorded in the
     * superblock (hardening_flags) because it changes how much of each
     * block the application owns: reopening an existing heap always
     * adopts the image's setting, whatever this says.
     */
    bool redzone_canaries = false;

    /** Delay the reuse of freed small blocks through a FIFO of this
     *  many blocks, poison-filled and verified at eviction so a
     *  use-after-free write is detectable. 0 disables. */
    unsigned quarantine_depth = 0;

    /** What a detected corruption does (report-and-leak / quarantine
     *  / abort). */
    HardeningPolicy hardening_policy = HardeningPolicy::Report;

    // ---- pool containment (pool.h, DESIGN.md §12) ------------------
    // The patrol scrubber (maintenance stage 5) has no knob: it runs
    // whenever maintenance runs.

    /**
     * Fault containment (HeapPool members): when corruption is
     * detected — by the hardened-free pipeline, the auditor, the
     * patrol scrubber or recovery — the heap transitions to
     * Degraded/Quarantined and refuses new allocations with
     * NvStatus::HeapUnhealthy until NvAlloc::restoreHealth() passes a
     * clean audit. Off (default), health is still tracked and exported
     * but never gates operations, preserving single-heap semantics.
     */
    bool fault_containment = false;

    /** Per-tenant capacity quota in bytes, enforced on the extent path
     *  (activated extent bytes, slabs included). 0 = unlimited. */
    uint64_t capacity_quota_bytes = 0;

    /** Field-wise identity: the pool refuses to share a member
     *  between opens whose configs differ in any knob. */
    bool operator==(const NvAllocConfig &) const = default;

    /**
     * Validate the knobs an NvAlloc::open() caller can get wrong
     * without tripping anything immediately. Returns nullptr when the
     * config is usable, else a human-readable reason; open() maps a
     * non-null reason to NvStatus::InvalidArgument before construction.
     */
    const char *
    invalidReason() const
    {
        if (bit_stripes < 1 || bit_stripes > 32)
            return "bit_stripes must be in [1, 32]";
        if (num_arenas < 1)
            return "num_arenas must be >= 1";
        if (!(morph_threshold >= 0.0 && morph_threshold <= 1.0))
            return "morph_threshold must be in [0, 1]";
        if (!(log_gc_threshold > 0.0))
            return "log_gc_threshold must be > 0";
        if (log_bookkeeping && log_file_bytes < 4096)
            return "log_file_bytes must be >= 4096";
        if (maintenance_mode != MaintenanceMode::Off &&
            maintenance_mode != MaintenanceMode::Thread)
            return "maintenance_mode out of range";
        if (hardening_policy > HardeningPolicy::Abort)
            return "hardening_policy out of range";
        if (capacity_quota_bytes != 0 &&
            capacity_quota_bytes < (uint64_t{1} << 16))
            return "capacity_quota_bytes must be 0 or >= 64 KB";
        if (quarantine_depth > (1u << 20))
            return "quarantine_depth must be <= 2^20";
        return nullptr;
    }
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_CONFIG_H
