/**
 * @file
 * Structured error reporting for the NVAlloc runtime.
 *
 * Production allocators degrade, they do not abort: every failure that
 * can be produced by the workload (exhaustion, slot pressure, invalid
 * frees) or by the media (corrupt metadata at open) is reported as an
 * NvStatus through the public API instead of an NV_FATAL. The heap
 * additionally tracks a coarse degradation mode so callers can tell
 * "allocation failed once" from "the heap is out of space".
 */

#ifndef NVALLOC_NVALLOC_STATUS_H
#define NVALLOC_NVALLOC_STATUS_H

#include <cstdint>

namespace nvalloc {

/** Outcome of a public allocator operation. */
enum class NvStatus : int {
    Ok = 0,
    OutOfMemory,     //!< device exhausted even after reclamation
    LogExhausted,    //!< bookkeeping-log region full after slow GC
    RegionTableFull, //!< persistent region table out of slots
    TooManyThreads,  //!< all kMaxThreads WAL slots are attached
    InvalidFree,     //!< double free or foreign/unaligned pointer
    InvalidArgument, //!< zero or unrepresentable request size
    CorruptMetadata, //!< superblock/log root failed validation at open
    UnknownCtl,      //!< ctlRead name not in the stats registry
    QuotaExceeded,   //!< per-tenant capacity quota hit on the extent path
    HeapUnhealthy,   //!< heap is Degraded/Quarantined; repair it first
};

/** Number of NvStatus codes (keep in step with the last enumerator);
 *  sizes the stats.alloc.failed_by.<reason> family. */
constexpr unsigned kNumNvStatuses =
    static_cast<unsigned>(NvStatus::HeapUnhealthy) + 1;

inline const char *
nvStatusName(NvStatus s)
{
    switch (s) {
    case NvStatus::Ok: return "ok";
    case NvStatus::OutOfMemory: return "out-of-memory";
    case NvStatus::LogExhausted: return "log-exhausted";
    case NvStatus::RegionTableFull: return "region-table-full";
    case NvStatus::TooManyThreads: return "too-many-threads";
    case NvStatus::InvalidFree: return "invalid-free";
    case NvStatus::InvalidArgument: return "invalid-argument";
    case NvStatus::CorruptMetadata: return "corrupt-metadata";
    case NvStatus::UnknownCtl: return "unknown-ctl";
    case NvStatus::QuotaExceeded: return "quota-exceeded";
    case NvStatus::HeapUnhealthy: return "heap-unhealthy";
    }
    return "unknown";
}

/**
 * Per-heap health state machine (pool containment, DESIGN.md §12).
 * Serving is the normal state; Scrubbing is published while a patrol
 * slice is actively walking metadata (informational — operations are
 * unrestricted); Degraded and Quarantined are escalations recorded
 * when the hardened-free pipeline, the auditor, the patrol scrubber or
 * recovery flags corruption. With NvAllocConfig::fault_containment
 * set, Degraded/Quarantined heaps refuse new allocations
 * (NvStatus::HeapUnhealthy) — reads, frees and fsck-repair still work —
 * until a clean audit restores them to Serving.
 */
enum class HeapHealth : int {
    Serving = 0,
    Scrubbing,
    Degraded,    //!< hostile-operation corruption detected (app-level)
    Quarantined, //!< metadata damage confirmed (audit/patrol/recovery)
};

inline const char *
heapHealthName(HeapHealth h)
{
    switch (h) {
    case HeapHealth::Serving: return "serving";
    case HeapHealth::Scrubbing: return "scrubbing";
    case HeapHealth::Degraded: return "degraded";
    case HeapHealth::Quarantined: return "quarantined";
    }
    return "unknown";
}

/**
 * Degradation state machine. Normal -> Reclaiming on first exhaustion
 * (the slow path drains tcaches, forces a log slow-GC and a decay pass,
 * then retries); Reclaiming -> Normal if the retry succeeds, ->
 * Exhausted if it does not. Exhausted -> Normal again as soon as any
 * allocation succeeds (frees opened space back up). Failed is terminal:
 * the heap refused to open over corrupt root metadata and only
 * read-only introspection is allowed.
 */
enum class HeapMode : int {
    Normal = 0,
    Reclaiming,
    Exhausted,
    Failed,
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_STATUS_H
