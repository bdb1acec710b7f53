/**
 * @file
 * Telemetry counter taxonomy.
 *
 * The one counting rule: every event a heap counts is counted once,
 * into the recording thread's telemetry shard (telemetry.h), under a
 * stable slot in this enum. statCounterName() gives each slot its
 * dotted ctl name, and the ctl registry (nvalloc/stats.cc) registers
 * every slot in one loop. Keep the enum and statCounterName() in sync
 * when adding a counter.
 *
 * Per-size-class allocation/free counts and failed allocations by
 * NvStatus live in separate shard arrays (they are families, not
 * single scalars); everything else is one monotonic uint64 per slot.
 * Flushes and fences are counted once, by the PM model's
 * LatencyModel, not here.
 *
 * Deliberately absent: totals the recording path can avoid
 * maintaining, and second names for an event already counted. They
 * are computed at ctl-read time (nvalloc/stats.cc): stats.alloc.small
 * / stats.free.small sum the per-class arrays, stats.tcache.hit is
 * small allocs minus TcacheMiss, stats.alloc.failed sums the by-reason
 * family, stats.hardening.validated_frees is small + large frees minus
 * guard frees, stats.wal.commits sums the WAL rings' own sequence
 * counters, the slab lifecycle totals sum the arenas' own Stats, and
 * the stats.flush.* family reads the PM model's counts minus those at
 * heap open.
 */

#ifndef NVALLOC_TELEMETRY_COUNTERS_H
#define NVALLOC_TELEMETRY_COUNTERS_H

namespace nvalloc {

/** Scalar telemetry counters (all monotonic event counts). */
enum class StatCounter : unsigned
{
    // Allocation / free traffic (small-path totals are derived from
    // the per-class family, failures from the by-reason family).
    AllocLarge = 0,  //!< large (extent) allocations served
    FreeLarge,       //!< large extents freed
    InvalidFree,     //!< frees rejected (double/foreign/null)
    LargeAllocBytes, //!< requested bytes of served large allocations
    LargeFreeBytes,  //!< extent bytes released by large frees

    // Thread-cache behaviour: only the (rare) miss is recorded; hits
    // are small allocs minus misses.
    TcacheMiss, //!< alloc that needed an arena refill

    // Lock-free fast path (DESIGN.md §14).
    ReserveHits,     //!< region reservations that claimed blocks
    ReserveMisses,   //!< reservations that found the regions dry
    CasRetries,      //!< bitfield CAS losses inside reservations
    RegionSteals,    //!< refills served by a sibling arena
    LockedFallbacks, //!< allocs/frees that took the arena VLock

    // Large allocator: extent lifecycle, slabs' extents included.
    LargeAllocations,
    LargeFrees,
    LargeSplits,
    LargeCoalesces,
    LargeRegionsMapped,
    LargeRegionsUnmapped,
    LargeDemotions, //!< reclaimed -> retained
    LargeEvictions, //!< retained -> OS

    // Bookkeeping log (paper §5.3).
    LogAppend,
    LogTombstone,
    LogFastGc,
    LogSlowGc,
    LogEntriesCopied, //!< live entries slow GC relocated
    LogGcNs,          //!< virtual ns inside fast/slow GC passes

    // Degradation state machine (status.h).
    ModeToReclaiming, //!< Normal -> Reclaiming transitions
    ModeToExhausted,  //!< Reclaiming -> Exhausted transitions
    ModeToNormal,     //!< returns to Normal from a degraded mode
    ReclaimAttempts,  //!< exhaustion slow paths entered
    ReclaimSuccesses, //!< retries the slow path rescued
    FailedAttaches,   //!< attachThread refusals
    QuarantineListFull, //!< slab refusals the full list could not record

    // Recovery.
    RecoveryRun, //!< recoverHeap() executions observed by this heap

    // Hardening (DESIGN.md §9): detections by kind, containment.
    DoubleFree,
    MisalignedFree,
    WildFree,
    CrossHeapFree,
    CanaryStomp,
    TxStagedFree, //!< plain frees racing an open tx
    GuardAlloc,
    GuardFree,
    GuardOverflow,
    GuardUaf,
    QuarantinePush,
    QuarantineEviction,
    QuarantineUaf,
    LeakedBlock,      //!< report-and-leak leaks
    CorruptionReport, //!< CorruptionReports made

    // Transactions (DESIGN.md §11).
    TxBegin,
    TxCommit,
    TxAbort,
    TxOpAlloc,
    TxOpFree,
    TxOpWrite,
    TxRejected,        //!< nested begin, op outside a tx, bad target
    TxOversize,        //!< ops refused at kTxMaxOps
    TxPlainOpRejected, //!< plain alloc/free under an open tx

    // Health machine and patrol scrubber (DESIGN.md §12).
    HealthEscalation, //!< upward transitions
    HealthRestore,    //!< clean audits back to Serving
    HealthRejectedOp, //!< mutations refused while unhealthy
    ScrubSlice,       //!< patrol batches run
    ScrubItem,        //!< metadata items examined
    ScrubFinding,     //!< stable damage declared
    ScrubRepaired,    //!< findings fixed in place
    ScrubRetry,       //!< transient mismatches re-read
    ScrubPass,        //!< completed full walks

    // Maintenance service (DESIGN.md §8).
    MaintSlice,
    MaintWake,
    MaintLogFastGc,
    MaintLogSlowGc, //!< slow GCs that compacted
    MaintDecayTick,
    MaintScrubbedLine, //!< poison lines healed
    MaintTrimRequest,
    MaintDeferred,    //!< slow GCs blocked by pins
    MaintVirtualNs,   //!< modeled time inside slices
    MaintGcVirtualNs, //!< the share of LogGcNs slices absorbed
    MaintPatrolSlice, //!< slices that ran a patrol batch

    NumCounters,
};

constexpr unsigned kNumStatCounters =
    static_cast<unsigned>(StatCounter::NumCounters);

/** Reason dimension of the per-shard failed-allocation family, indexed
 *  by NvStatus code; nvalloc static_asserts its statuses fit. */
constexpr unsigned kTelemetryMaxStatuses = 16;

inline const char *
statCounterName(StatCounter c)
{
    switch (c) {
    case StatCounter::AllocLarge: return "alloc.large";
    case StatCounter::FreeLarge: return "free.large";
    case StatCounter::InvalidFree: return "free.invalid";
    case StatCounter::LargeAllocBytes: return "alloc.large_bytes";
    case StatCounter::LargeFreeBytes: return "free.large_bytes";
    case StatCounter::TcacheMiss: return "tcache.miss";
    case StatCounter::ReserveHits: return "fastpath.reserve_hits";
    case StatCounter::ReserveMisses: return "fastpath.reserve_misses";
    case StatCounter::CasRetries: return "fastpath.cas_retries";
    case StatCounter::RegionSteals: return "fastpath.region_steals";
    case StatCounter::LockedFallbacks: return "fastpath.locked_fallbacks";
    case StatCounter::LargeAllocations: return "large.allocations";
    case StatCounter::LargeFrees: return "large.frees";
    case StatCounter::LargeSplits: return "large.splits";
    case StatCounter::LargeCoalesces: return "large.coalesces";
    case StatCounter::LargeRegionsMapped: return "large.regions_mapped";
    case StatCounter::LargeRegionsUnmapped: return "large.regions_unmapped";
    case StatCounter::LargeDemotions: return "large.demotions";
    case StatCounter::LargeEvictions: return "large.evictions";
    case StatCounter::LogAppend: return "log.appends";
    case StatCounter::LogTombstone: return "log.tombstones";
    case StatCounter::LogFastGc: return "log.fast_gc";
    case StatCounter::LogSlowGc: return "log.slow_gc";
    case StatCounter::LogEntriesCopied: return "log.entries_copied";
    case StatCounter::LogGcNs: return "log.gc_ns";
    case StatCounter::ModeToReclaiming: return "mode.to_reclaiming";
    case StatCounter::ModeToExhausted: return "mode.to_exhausted";
    case StatCounter::ModeToNormal: return "mode.to_normal";
    case StatCounter::ReclaimAttempts: return "degraded.reclaim_attempts";
    case StatCounter::ReclaimSuccesses: return "degraded.reclaim_successes";
    case StatCounter::FailedAttaches: return "degraded.failed_attaches";
    case StatCounter::QuarantineListFull:
        return "degraded.quarantine_list_full";
    case StatCounter::RecoveryRun: return "recovery.runs";
    case StatCounter::DoubleFree: return "hardening.double_frees";
    case StatCounter::MisalignedFree: return "hardening.misaligned_frees";
    case StatCounter::WildFree: return "hardening.wild_frees";
    case StatCounter::CrossHeapFree: return "hardening.cross_heap_frees";
    case StatCounter::CanaryStomp: return "hardening.canary_stomps";
    case StatCounter::TxStagedFree: return "hardening.tx_staged_frees";
    case StatCounter::GuardAlloc: return "hardening.guard_allocs";
    case StatCounter::GuardFree: return "hardening.guard_frees";
    case StatCounter::GuardOverflow: return "hardening.guard_overflows";
    case StatCounter::GuardUaf: return "hardening.guard_uaf";
    case StatCounter::QuarantinePush: return "hardening.quarantine_pushes";
    case StatCounter::QuarantineEviction:
        return "hardening.quarantine_evictions";
    case StatCounter::QuarantineUaf: return "hardening.quarantine_uaf";
    case StatCounter::LeakedBlock: return "hardening.leaked_blocks";
    case StatCounter::CorruptionReport: return "hardening.reports";
    case StatCounter::TxBegin: return "tx.begins";
    case StatCounter::TxCommit: return "tx.commits";
    case StatCounter::TxAbort: return "tx.aborts";
    case StatCounter::TxOpAlloc: return "tx.ops_alloc";
    case StatCounter::TxOpFree: return "tx.ops_free";
    case StatCounter::TxOpWrite: return "tx.ops_write";
    case StatCounter::TxRejected: return "tx.rejected";
    case StatCounter::TxOversize: return "tx.oversize";
    case StatCounter::TxPlainOpRejected: return "tx.plain_ops_rejected";
    case StatCounter::HealthEscalation: return "health.escalations";
    case StatCounter::HealthRestore: return "health.restores";
    case StatCounter::HealthRejectedOp: return "health.rejected_ops";
    case StatCounter::ScrubSlice: return "scrub.slices";
    case StatCounter::ScrubItem: return "scrub.items";
    case StatCounter::ScrubFinding: return "scrub.findings";
    case StatCounter::ScrubRepaired: return "scrub.repaired";
    case StatCounter::ScrubRetry: return "scrub.retries";
    case StatCounter::ScrubPass: return "scrub.passes";
    case StatCounter::MaintSlice: return "maintenance.slices";
    case StatCounter::MaintWake: return "maintenance.wakes";
    case StatCounter::MaintLogFastGc: return "maintenance.log_fast_gc";
    case StatCounter::MaintLogSlowGc: return "maintenance.log_slow_gc";
    case StatCounter::MaintDecayTick: return "maintenance.decay_ticks";
    case StatCounter::MaintScrubbedLine:
        return "maintenance.scrubbed_lines";
    case StatCounter::MaintTrimRequest: return "maintenance.trim_requests";
    case StatCounter::MaintDeferred: return "maintenance.deferred";
    case StatCounter::MaintVirtualNs: return "maintenance.virtual_ns";
    case StatCounter::MaintGcVirtualNs: return "maintenance.gc_virtual_ns";
    case StatCounter::MaintPatrolSlice: return "maintenance.patrol_slices";
    case StatCounter::NumCounters: break;
    }
    return "?";
}

} // namespace nvalloc

#endif // NVALLOC_TELEMETRY_COUNTERS_H
