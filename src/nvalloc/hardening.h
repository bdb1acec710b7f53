/**
 * @file
 * Heap-hardening subsystem (DESIGN.md §9).
 *
 * Production PM allocators sit byte-adjacent to user payloads: a
 * single application overflow or use-after-free silently corrupts
 * persistent metadata that survives restart forever. This layer turns
 * that undefined behaviour into detected, contained, reported events:
 *
 *  - sampled guard allocations (GWP-ASan style): 1-in-N small
 *    allocations are redirected to a dedicated large extent whose tail
 *    is filled with a redzone pattern; the free verifies the redzone
 *    and catches linear overflows at the faulting allocation, and a
 *    bounded watch list over freed guard extents catches
 *    use-after-free writes into the poisoned user area;
 *  - one free pipeline (nvalloc.cc): every free — plain, hardened,
 *    transactional or replayed — resolves provenance, then validates
 *    alignment and double free under the block's freeing claim inside
 *    the slab's fast-op gate, and rejections are classified per kind,
 *    including cross-heap frees via a process-wide heap registry;
 *  - redzone canaries: opt-in per-block canary words stamped at
 *    allocation and checked on free and by the auditor, so a linear
 *    overflow of *any* small block (not just sampled ones) is caught
 *    at its free;
 *  - a bounded FIFO quarantine that delays block reuse: quarantined
 *    blocks stay lent (unavailable) and are filled with a poison
 *    pattern verified at eviction, so a use-after-free write lands in
 *    a detectable window instead of a recycled object.
 *
 * Everything here is volatile policy over the existing persistent
 * format: a crash simply forgets guard registrations and the
 * quarantine (quarantined blocks recover as free — their persistent
 * bit was already cleared), and canaries are restamped by recovery so
 * a torn canary line can never masquerade as an application stomp.
 *
 * What a detection does is the HardeningPolicy: Report (count + warn +
 * structured CorruptionReport; corrupted blocks are leaked), Quarantine
 * (report, then push the block through the delayed-reuse FIFO), or
 * Abort (std::abort at the faulting operation, for test harnesses and
 * paranoid deployments).
 */

#ifndef NVALLOC_NVALLOC_HARDENING_H
#define NVALLOC_NVALLOC_HARDENING_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nvalloc/config.h"
#include "telemetry/counters.h"
#include "telemetry/event_ring.h"

namespace nvalloc {

class NvAlloc;
class PmDevice;
class Telemetry;
class VSlab;

/** Classification of a detected corruption / hostile operation. */
enum class CorruptionKind : uint8_t
{
    GuardOverflow,     //!< guard redzone dirtied (overflow at free)
    GuardUseAfterFree, //!< freed guard's poison fill dirtied
    DoubleFree,        //!< free of an already-free block/extent
    MisalignedFree,    //!< interior or misaligned pointer
    WildFree,          //!< offset no heap structure owns
    CrossHeapFree,     //!< offset owned by a *different* live heap
    CanaryStomp,       //!< per-block canary overwritten
    QuarantineStomp,   //!< quarantined block's poison fill dirtied
    TxStagedFree,      //!< plain free of a block staged in an open tx
};

inline const char *
corruptionKindName(CorruptionKind k)
{
    switch (k) {
    case CorruptionKind::GuardOverflow: return "guard-overflow";
    case CorruptionKind::GuardUseAfterFree: return "guard-uaf";
    case CorruptionKind::DoubleFree: return "double-free";
    case CorruptionKind::MisalignedFree: return "misaligned-free";
    case CorruptionKind::WildFree: return "wild-free";
    case CorruptionKind::CrossHeapFree: return "cross-heap-free";
    case CorruptionKind::CanaryStomp: return "canary-stomp";
    case CorruptionKind::QuarantineStomp: return "quarantine-stomp";
    case CorruptionKind::TxStagedFree: return "tx-staged-free";
    }
    return "?";
}

/**
 * Structured description of one detected corruption; handed to the
 * report hook and kept (bounded) for post-mortem inspection. The trace
 * tail holds the alloc/free events that touched the offending offset,
 * when event tracing is armed — the GWP-ASan "allocated here / freed
 * here" context.
 */
struct CorruptionReport
{
    CorruptionKind kind = CorruptionKind::WildFree;
    uint64_t off = 0;          //!< offending device offset
    uint32_t size_class = ~0u; //!< small-block class, ~0u if unknown
    std::string detail;        //!< human-readable one-liner
    std::vector<TraceEvent> trace; //!< events touching off (≤ 8)
};

class HardeningManager
{
  public:
    /** Fill patterns. Chosen to be distinct from each other and from
     *  the common all-zero / all-ones corruption shapes. */
    static constexpr uint8_t kGuardRedzoneByte = 0xcb;
    static constexpr uint8_t kGuardFreeByte = 0xdd;
    static constexpr uint8_t kQuarantineByte = 0xf5;
    static constexpr size_t kCanaryBytes = 8;
    /** Freed guard extents watched for use-after-free writes. */
    static constexpr size_t kGuardWatchDepth = 8;
    /** Reports retained for post-mortem inspection. */
    static constexpr size_t kMaxRetainedReports = 16;

    HardeningManager() = default;
    ~HardeningManager();

    HardeningManager(const HardeningManager &) = delete;
    HardeningManager &operator=(const HardeningManager &) = delete;

    /** Bind to a heap; registers it for cross-heap classification.
     *  `owner` may be null (tests exercising the manager alone). */
    void init(NvAlloc *owner, PmDevice *dev, Telemetry *tel,
              const NvAllocConfig &cfg);

    /** Unregister from the cross-heap registry and drop volatile
     *  state. With `crashed`, the quarantine is discarded without
     *  touching slabs (they may already be gone). */
    void shutdown(bool crashed);

    HardeningPolicy policy() const { return policy_; }

    /** False until init() wires the device/owner. Recovery runs
     *  before init, so recovery-time frees must check this and skip
     *  the quarantine (it is volatile and there are no mutators to
     *  defend against yet). */
    bool ready() const { return dev_ != nullptr; }

    /** Per-block canary word: a fixed seed whitened by the block
     *  offset, so a canary copied verbatim to another block still
     *  fails verification. */
    static uint64_t
    canaryValue(uint64_t off)
    {
        return 0x4e56434e41525921ULL ^ (off * 0x9e3779b97f4a7c15ULL);
    }

    // ---- detection & policy -----------------------------------------

    /**
     * Record one detected corruption: bump the per-kind counter, emit
     * a TraceOp::Corruption event, capture the alloc/free trace tail
     * for `off` when tracing is armed, retain the report (bounded) and
     * apply the policy — Abort aborts here; Report/Quarantine return
     * so the caller can contain the damage as the kind requires.
     */
    void report(CorruptionKind kind, uint64_t off, uint32_t size_class,
                std::string detail);

    /** Snapshot of the retained reports, newest last. */
    std::vector<CorruptionReport> reportsSnapshot() const;

    // ---- cross-heap registry ----------------------------------------

    /** Does any *other* registered heap own `off`? Best-effort: only
     *  consulted after the local heap already rejected the free. */
    bool ownedByAnotherHeap(uint64_t off) const;

    // ---- guard allocations ------------------------------------------

    struct GuardInfo
    {
        uint64_t user_size = 0;
        uint64_t extent_size = 0;
    };

    /** Register a freshly allocated guard extent and paint its
     *  redzone tail [off+user_size, off+extent_size). */
    void armGuard(uint64_t off, uint64_t user_size,
                  uint64_t extent_size);

    bool isGuard(uint64_t off) const;

    /** Remove the registration; false if `off` is not a live guard. */
    bool takeGuard(uint64_t off, GuardInfo *out);

    /** True iff the redzone tail of a live guard is intact. Call
     *  before takeGuard so the info is still registered. */
    bool guardRedzoneIntact(uint64_t off, const GuardInfo &info) const;

    /**
     * Watch a just-freed (and already poison-filled) guard extent for
     * use-after-free writes. Bounded: pushing may evict the oldest
     * entry after verifying its fill — verification runs under the
     * large allocator's lock so a concurrent reallocation of the
     * extent can neither race the read nor be misread as a stomp.
     */
    void watchFreedGuard(uint64_t off, const GuardInfo &info);

    /** Verify every still-reclaimed watched extent now (test hook /
     *  drain point); entries are consumed either way. */
    void sweepGuardWatch();

    // ---- delayed-reuse quarantine -----------------------------------

    /**
     * Push a freed small block into the quarantine FIFO. The caller
     * must have markFreeToTcache()d it (persistent bit cleared, block
     * still lent so its slab cannot be released) and must be outside
     * every fast-op gate and arena lock — eviction of the oldest entry
     * may report, and returns the block through its (possibly
     * different) slab's gate (Arena::returnLent). The block is filled
     * with kQuarantineByte; the eviction verifies the fill and reports
     * QuarantineStomp on a mismatch before returning the block.
     */
    void quarantinePush(VSlab *slab, unsigned idx, uint64_t off,
                        unsigned block_size);

    /** Evict everything (reclaim slow path, normal shutdown). */
    void drainQuarantine();

    /** Forget the quarantine without touching slabs (crash path). */
    void dropQuarantine();

    uint64_t
    quarantineDepth() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return quarantine_.size();
    }

    /** Live guard allocations (registered, not yet freed). */
    uint64_t
    guardLive() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return guard_map_.size();
    }

    /** Freed guards whose reclaimed fill is still being watched. */
    uint64_t
    guardWatched() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return watch_.size();
    }

  private:
    struct QuarantinedBlock
    {
        VSlab *slab = nullptr;
        unsigned idx = 0;
        uint64_t off = 0;
        unsigned block_size = 0;
    };

    struct WatchedGuard
    {
        uint64_t off = 0;
        GuardInfo info;
        uint64_t epoch = 0; //!< extent reuse epoch at free time
    };

    /** stats.hardening.* go to the heap's telemetry; before init()
     *  (recovery) nothing here is counted. */
    void count(StatCounter c);

    void evictOne(QuarantinedBlock b);
    void verifyWatchedGuard(const WatchedGuard &w);

    NvAlloc *owner_ = nullptr;
    PmDevice *dev_ = nullptr;
    Telemetry *tel_ = nullptr;
    HardeningPolicy policy_ = HardeningPolicy::Report;
    unsigned quarantine_cap_ = 0;
    bool registered_ = false;

    /** Guards guard_map_, watch_, quarantine_ and reports_. Never held
     *  while taking an arena lock or the large allocator's lock — the
     *  containers are mutated first, slab/extent work happens after
     *  the mutex is dropped. */
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, GuardInfo> guard_map_;
    std::deque<WatchedGuard> watch_;
    std::deque<QuarantinedBlock> quarantine_;
    std::deque<CorruptionReport> reports_;
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_HARDENING_H
