#include "nvalloc/hardening.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "nvalloc/arena.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/slab.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

namespace {

/**
 * Process-wide registry of live heaps, for cross-heap free
 * classification. A Meyers singleton (not namespace-scope statics) so
 * heaps constructed before main() still find it initialized.
 */
struct HeapRegistry
{
    std::mutex mu;
    std::vector<NvAlloc *> heaps;
};

HeapRegistry &
registry()
{
    static HeapRegistry r;
    return r;
}

bool
fillIntact(const uint8_t *p, size_t n, uint8_t expect)
{
    for (size_t i = 0; i < n; ++i) {
        if (p[i] != expect)
            return false;
    }
    return true;
}

/** The stats.hardening.* counter a detection of `kind` bumps. */
StatCounter
kindCounter(CorruptionKind kind)
{
    switch (kind) {
    case CorruptionKind::GuardOverflow: return StatCounter::GuardOverflow;
    case CorruptionKind::GuardUseAfterFree: return StatCounter::GuardUaf;
    case CorruptionKind::DoubleFree: return StatCounter::DoubleFree;
    case CorruptionKind::MisalignedFree:
        return StatCounter::MisalignedFree;
    case CorruptionKind::WildFree: return StatCounter::WildFree;
    case CorruptionKind::CrossHeapFree: return StatCounter::CrossHeapFree;
    case CorruptionKind::CanaryStomp: return StatCounter::CanaryStomp;
    case CorruptionKind::QuarantineStomp:
        return StatCounter::QuarantineUaf;
    case CorruptionKind::TxStagedFree: return StatCounter::TxStagedFree;
    }
    return StatCounter::CorruptionReport;
}

} // namespace

HardeningManager::~HardeningManager()
{
    // The owning NvAlloc calls shutdown() from its destructor before
    // subsystems die; this is only the safety net for init-less or
    // double-destroyed paths.
    if (registered_)
        shutdown(/*crashed=*/true);
}

void
HardeningManager::init(NvAlloc *owner, PmDevice *dev, Telemetry *tel,
                       const NvAllocConfig &cfg)
{
    owner_ = owner;
    dev_ = dev;
    tel_ = tel;
    policy_ = cfg.hardening_policy;
    quarantine_cap_ = cfg.quarantine_depth;
    if (owner_) {
        std::lock_guard<std::mutex> g(registry().mu);
        registry().heaps.push_back(owner_);
        registered_ = true;
    }
}

void
HardeningManager::count(StatCounter c)
{
    if (tel_)
        tel_->add(c);
}

void
HardeningManager::shutdown(bool crashed)
{
    if (registered_) {
        std::lock_guard<std::mutex> g(registry().mu);
        auto &hs = registry().heaps;
        hs.erase(std::remove(hs.begin(), hs.end(), owner_), hs.end());
        registered_ = false;
    }
    if (crashed)
        dropQuarantine();
    else
        drainQuarantine();
    std::lock_guard<std::mutex> g(mu_);
    guard_map_.clear();
    watch_.clear();
}

bool
HardeningManager::ownedByAnotherHeap(uint64_t off) const
{
    if (!owner_)
        return false;
    std::lock_guard<std::mutex> g(registry().mu);
    for (NvAlloc *heap : registry().heaps) {
        if (heap != owner_ && heap->ownsOffset(off))
            return true;
    }
    return false;
}

void
HardeningManager::report(CorruptionKind kind, uint64_t off,
                         uint32_t size_class, std::string detail)
{
    count(kindCounter(kind));
    count(StatCounter::CorruptionReport);

    CorruptionReport rep;
    rep.kind = kind;
    rep.off = off;
    rep.size_class = size_class;
    rep.detail = std::move(detail);
    if (tel_) {
        tel_->event(TraceOp::Corruption, off,
                    size_class <= 0xff ? uint8_t(size_class) : 0xff,
                    uint16_t(kind));
        if (tel_->tracingEvents()) {
            // The GWP-ASan-style context: the alloc/free history of
            // this exact offset, newest 8 events.
            std::vector<TraceEvent> all;
            tel_->drainEvents(all);
            for (const TraceEvent &e : all) {
                if (e.arg != off)
                    continue;
                if (e.op != TraceOp::Alloc && e.op != TraceOp::Free &&
                    e.op != TraceOp::InvalidFree &&
                    e.op != TraceOp::Corruption)
                    continue;
                rep.trace.push_back(e);
            }
            if (rep.trace.size() > 8)
                rep.trace.erase(rep.trace.begin(),
                                rep.trace.end() - 8);
        }
    }

    char line[160];
    std::snprintf(line, sizeof(line),
                  "hardening: %s at offset 0x%llx%s%s",
                  corruptionKindName(kind),
                  static_cast<unsigned long long>(off),
                  rep.detail.empty() ? "" : " — ",
                  rep.detail.c_str());
    NV_WARN(line);

    {
        std::lock_guard<std::mutex> g(mu_);
        reports_.push_back(std::move(rep));
        while (reports_.size() > kMaxRetainedReports)
            reports_.pop_front();
    }

    // Feed the heap health machine (DESIGN.md §12): every confirmed
    // corruption report degrades the owning heap. The state change is
    // always tracked; whether a Degraded heap keeps serving is the
    // owner's fault_containment policy, so single-heap configurations
    // behave exactly as before.
    if (owner_) {
        owner_->escalateHealth(HeapHealth::Degraded,
                               corruptionKindName(kind));
    }

    if (policy_ == HardeningPolicy::Abort) {
        NV_WARN("hardening: policy is abort");
        std::abort();
    }
}

std::vector<CorruptionReport>
HardeningManager::reportsSnapshot() const
{
    std::lock_guard<std::mutex> g(mu_);
    return std::vector<CorruptionReport>(reports_.begin(),
                                         reports_.end());
}

// ---- guard allocations ----------------------------------------------

void
HardeningManager::armGuard(uint64_t off, uint64_t user_size,
                           uint64_t extent_size)
{
    NV_ASSERT(extent_size > user_size);
    std::memset(static_cast<uint8_t *>(dev_->at(off)) + user_size,
                kGuardRedzoneByte, extent_size - user_size);
    {
        std::lock_guard<std::mutex> g(mu_);
        guard_map_[off] = GuardInfo{user_size, extent_size};
        // A stale watch entry for this offset describes the *previous*
        // guard life of the extent: its sizes no longer match the
        // memory, so verifying it after this allocation's own free
        // would misread the new redzone fill as a dirtied poison fill.
        for (auto it = watch_.begin(); it != watch_.end();) {
            if (it->off == off)
                it = watch_.erase(it);
            else
                ++it;
        }
    }
    count(StatCounter::GuardAlloc);
}

bool
HardeningManager::isGuard(uint64_t off) const
{
    std::lock_guard<std::mutex> g(mu_);
    return guard_map_.count(off) != 0;
}

bool
HardeningManager::takeGuard(uint64_t off, GuardInfo *out)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = guard_map_.find(off);
    if (it == guard_map_.end())
        return false;
    if (out)
        *out = it->second;
    guard_map_.erase(it);
    return true;
}

bool
HardeningManager::guardRedzoneIntact(uint64_t off,
                                     const GuardInfo &info) const
{
    const uint8_t *p =
        static_cast<const uint8_t *>(dev_->at(off)) + info.user_size;
    return fillIntact(p, info.extent_size - info.user_size,
                      kGuardRedzoneByte);
}

void
HardeningManager::watchFreedGuard(uint64_t off, const GuardInfo &info)
{
    // Capture the extent's reuse epoch before taking mu_ (lock order:
    // never mu_ then the large allocator's lock). The deferred verify
    // only trusts the poison fill while this free life is current.
    uint64_t epoch =
        owner_ ? owner_->large().reclaimedEpoch(off) : ~0ULL;
    WatchedGuard evicted;
    bool have_evicted = false;
    {
        std::lock_guard<std::mutex> g(mu_);
        watch_.push_back(WatchedGuard{off, info, epoch});
        if (watch_.size() > kGuardWatchDepth) {
            evicted = watch_.front();
            watch_.pop_front();
            have_evicted = true;
        }
    }
    if (have_evicted)
        verifyWatchedGuard(evicted);
}

void
HardeningManager::sweepGuardWatch()
{
    std::deque<WatchedGuard> pending;
    {
        std::lock_guard<std::mutex> g(mu_);
        pending.swap(watch_);
    }
    for (const WatchedGuard &w : pending)
        verifyWatchedGuard(w);
}

void
HardeningManager::verifyWatchedGuard(const WatchedGuard &w)
{
    if (!owner_)
        return;
    // verifyReclaimedFill holds the large allocator's lock, so the
    // extent cannot be handed back out mid-check; -1 means it already
    // was (or was coalesced/decommitted) and the evidence is gone.
    int r = owner_->large().verifyReclaimedFill(
        w.off, w.info.extent_size, w.epoch, w.info.user_size,
        kGuardFreeByte);
    if (r > 0) {
        report(CorruptionKind::GuardUseAfterFree, w.off, ~0u,
               "freed guard extent's poison fill was overwritten");
    }
}

// ---- delayed-reuse quarantine ---------------------------------------

void
HardeningManager::quarantinePush(VSlab *slab, unsigned idx,
                                 uint64_t off, unsigned block_size)
{
    // The block is lent: its slab cannot be released and nobody else
    // can be handed the block, so this fill cannot race a new owner.
    std::memset(dev_->at(off), kQuarantineByte, block_size);
    count(StatCounter::QuarantinePush);

    QuarantinedBlock evicted;
    bool have_evicted = false;
    {
        std::lock_guard<std::mutex> g(mu_);
        quarantine_.push_back(
            QuarantinedBlock{slab, idx, off, block_size});
        if (quarantine_.size() > quarantine_cap_) {
            evicted = quarantine_.front();
            quarantine_.pop_front();
            have_evicted = true;
        }
    }
    if (have_evicted)
        evictOne(evicted);
}

void
HardeningManager::evictOne(QuarantinedBlock b)
{
    if (!fillIntact(static_cast<const uint8_t *>(dev_->at(b.off)),
                    b.block_size, kQuarantineByte)) {
        report(CorruptionKind::QuarantineStomp, b.off, ~0u,
               "quarantined block was written after free");
    }
    b.slab->arena->returnLent(b.slab, b.idx);
    count(StatCounter::QuarantineEviction);
}

void
HardeningManager::drainQuarantine()
{
    std::deque<QuarantinedBlock> pending;
    {
        std::lock_guard<std::mutex> g(mu_);
        pending.swap(quarantine_);
    }
    for (const QuarantinedBlock &b : pending)
        evictOne(b);
}

void
HardeningManager::dropQuarantine()
{
    std::lock_guard<std::mutex> g(mu_);
    quarantine_.clear();
}

} // namespace nvalloc
