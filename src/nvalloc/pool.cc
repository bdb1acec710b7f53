#include "nvalloc/pool.h"

#include <utility>

#include "common/logging.h"
#include "nvalloc/auditor.h"

namespace nvalloc {

void
HeapPool::installHook(const std::string &name, NvAlloc *heap)
{
    // By contract the hook only records: it can fire under heap locks
    // (the patrol escalates under its own mutex), so it touches pool
    // atomics and the leaf reason_mu_ — never mu_ and never any heap.
    heap->setHealthHook([this, name](HeapHealth to, const char *why) {
        stats_.escalations.fetch_add(1, std::memory_order_relaxed);
        if (to == HeapHealth::Quarantined)
            stats_.quarantines.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> g(reason_mu_);
        last_reasons_[name] = why ? why : "";
    });
}

HeapPool::MemberResult
HeapPool::openLocked(const std::string &name, PmDevice &dev,
                     const NvAllocConfig &cfg)
{
    MemberResult res;
    OpenResult r = NvAlloc::open(dev, cfg);
    if (!r.heap) {
        res.status = r.status; // config rejected; nothing registered
        return res;
    }
    // A failed recovery is kept as a Quarantined member (the ctor
    // escalated it): siblings are independent heaps, and restore() /
    // per-heap fsck need the handle to repair the image.
    Member m;
    m.dev = &dev;
    m.cfg = cfg;
    m.heap = std::move(r.heap);
    installHook(name, m.heap.get());
    res.status = r.status;
    res.heap = m.heap.get();
    members_[name] = std::move(m);
    stats_.opens.fetch_add(1, std::memory_order_relaxed);
    return res;
}

HeapPool::MemberResult
HeapPool::open(const std::string &name, PmDevice &dev, NvAllocConfig cfg)
{
    // The pool's contract: members are fault-contained. Forced here so
    // the stored config (what a re-open must match) is the normalized
    // one.
    cfg.fault_containment = true;

    std::lock_guard<std::mutex> g(mu_);
    auto it = members_.find(name);
    if (it != members_.end()) {
        MemberResult res;
        if (it->second.cfg != cfg) {
            // Not silent first-wins: refuse, and record the refusal on
            // the existing member's sticky status so errno-style
            // probes (nvalloc_errno) observe the mismatch.
            stats_.option_mismatches.fetch_add(
                1, std::memory_order_relaxed);
            it->second.heap->failOp(NvStatus::InvalidArgument);
            NV_WARN(("pool: open of '" + name +
                     "' with different options refused")
                        .c_str());
            res.status = NvStatus::InvalidArgument;
            return res;
        }
        stats_.reopen_hits.fetch_add(1, std::memory_order_relaxed);
        res.status = it->second.heap->openStatus();
        res.heap = it->second.heap.get();
        res.existing = true;
        return res;
    }
    return openLocked(name, dev, cfg);
}

NvAlloc *
HeapPool::find(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = members_.find(name);
    return it == members_.end() ? nullptr : it->second.heap.get();
}

NvStatus
HeapPool::close(const std::string &name)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = members_.find(name);
    if (it == members_.end())
        return NvStatus::InvalidArgument;
    members_.erase(it); // ~NvAlloc: normal shutdown (or neutered)
    std::lock_guard<std::mutex> r(reason_mu_);
    last_reasons_.erase(name);
    return NvStatus::Ok;
}

HeapPool::MemberResult
HeapPool::reopen(const std::string &name)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = members_.find(name);
    if (it == members_.end()) {
        MemberResult res;
        res.status = NvStatus::InvalidArgument;
        return res;
    }
    PmDevice &dev = *it->second.dev;
    NvAllocConfig cfg = it->second.cfg;
    members_.erase(it); // destroy first: one live heap per device
    return openLocked(name, dev, cfg);
}

NvStatus
HeapPool::restore(const std::string &name)
{
    NvAlloc *heap;
    {
        std::lock_guard<std::mutex> g(mu_);
        auto it = members_.find(name);
        if (it == members_.end())
            return NvStatus::InvalidArgument;
        heap = it->second.heap.get();
    }
    if (heap->openStatus() != NvStatus::Ok) {
        // The image failed recovery outright: a live-heap audit cannot
        // run. Re-open it — recovery already quarantines what it must
        // — and fall through to the repair pass on the fresh instance.
        MemberResult r = reopen(name);
        if (!r)
            return NvStatus::CorruptMetadata;
        heap = r.heap;
    }
    HeapAuditor aud(*heap);
    aud.repair();
    NvStatus s = heap->restoreHealth();
    if (s == NvStatus::Ok)
        stats_.restores.fetch_add(1, std::memory_order_relaxed);
    return s;
}

std::vector<std::string>
HeapPool::names() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::string> out;
    out.reserve(members_.size());
    for (const auto &[name, m] : members_)
        out.push_back(name);
    return out;
}

size_t
HeapPool::size() const
{
    std::lock_guard<std::mutex> g(mu_);
    return members_.size();
}

std::vector<HeapPool::MemberHealth>
HeapPool::snapshot() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<MemberHealth> out;
    out.reserve(members_.size());
    for (const auto &[name, m] : members_) {
        MemberHealth h;
        h.name = name;
        h.health = m.heap->health();
        const Telemetry &tel = m.heap->telemetry();
        h.escalations = tel.total(StatCounter::HealthEscalation);
        h.rejected_ops = tel.total(StatCounter::HealthRejectedOp);
        {
            std::lock_guard<std::mutex> r(reason_mu_);
            auto it = last_reasons_.find(name);
            if (it != last_reasons_.end())
                h.last_reason = it->second;
        }
        out.push_back(std::move(h));
    }
    return out;
}

} // namespace nvalloc
