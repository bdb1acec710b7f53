#include "nvalloc/core_cache.h"

namespace nvalloc {

unsigned
CoreCache::reserve(unsigned cls, TCache &tcache, unsigned batch,
                   Telemetry *tel)
{
    unsigned reserved = 0;
    uint64_t retries = 0;
    for (unsigned r = 0; r < kRegions && reserved < batch; ++r) {
        VSlab *slab = slots_[cls][r].load(std::memory_order_acquire);
        if (!slab)
            continue;
        if (!slab->enterFast())
            continue; // frozen: morph/repair in flight
        // Re-check under the gate: the slab may have morphed to
        // another class (or into a morph) since it was slotted.
        if (slab->sizeClass() != cls || slab->morphing()) {
            slab->exitFast();
            continue;
        }
        while (reserved < batch && !tcache.full(cls)) {
            unsigned idx = slab->claimFast(retries);
            if (idx == slab->capacity())
                break;
            bool ok = tcache.push(
                cls, CachedBlock{slab->blockOffset(idx), slab, idx});
            NV_ASSERT(ok);
            ++reserved;
        }
        slab->exitFast();
    }
    if (tel) {
        tel->add(StatCounter::CasRetries, retries);
        tel->add(reserved > 0 ? StatCounter::ReserveHits
                              : StatCounter::ReserveMisses);
    }
    return reserved;
}

void
CoreCache::install(unsigned cls, VSlab *slab)
{
    unsigned r = rotor_[cls];
    rotor_[cls] = (r + 1) % kRegions;
    // Pin before publish: a reserve() that loads the pointer must
    // never see a slab maybeRelease could take away.
    slab->pinRegion();
    VSlab *old =
        slots_[cls][r].exchange(slab, std::memory_order_acq_rel);
    if (old == slab) {
        // Already slotted here; keep a single pin.
        slab->unpinRegion();
        return;
    }
    if (old)
        old->unpinRegion();
}

void
CoreCache::dropRegions()
{
    for (unsigned cls = 0; cls < kNumSizeClasses; ++cls) {
        for (unsigned r = 0; r < kRegions; ++r) {
            VSlab *old =
                slots_[cls][r].exchange(nullptr,
                                        std::memory_order_acq_rel);
            if (old)
                old->unpinRegion();
        }
    }
}

} // namespace nvalloc
