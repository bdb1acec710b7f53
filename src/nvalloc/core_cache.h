/**
 * @file
 * Per-core slab regions: the lock-free middle tier between tcaches and
 * arenas (ISSUE 9, DESIGN.md §14).
 *
 * Each arena owns a CoreCache holding a few pinned "region" slabs per
 * size class in atomic slots. A thread whose tcache runs dry first
 * tries to reserve a batch of blocks straight from a region slab —
 * enterFast gate, CAS bitfield claims, exitFast — touching no VLock.
 * Only when every region of its own arena (and then of every sibling
 * arena — region stealing) is exhausted does it fall back to the
 * locked Arena::refill, which also reprovisions the slots.
 *
 * Slot lifetime: install() pins a slab before publishing it and unpins
 * the slab it displaces; Arena::maybeRelease skips pinned slabs, so a
 * slot pointer is always safe to dereference. A slab that morphs while
 * slotted is caught by the in-gate class/morph re-check and simply
 * misses.
 */

#ifndef NVALLOC_NVALLOC_CORE_CACHE_H
#define NVALLOC_NVALLOC_CORE_CACHE_H

#include <atomic>
#include <cstdint>

#include "common/size_classes.h"
#include "nvalloc/slab.h"
#include "nvalloc/tcache.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

class CoreCache
{
  public:
    /** Region slots per size class. More slots spread CAS traffic at
     *  the cost of pinned slab memory. */
    static constexpr unsigned kRegions = 2;

    /**
     * Lock-free: claim up to `batch` blocks of `cls` from the region
     * slabs into `tcache`. Returns the number reserved; counts a hit
     * or a miss (and any CAS retries) into `tel`.
     */
    unsigned reserve(unsigned cls, TCache &tcache, unsigned batch,
                     Telemetry *tel);

    /**
     * Publish `slab` as a region for `cls`, displacing the slot the
     * rotor points at. Pins the new slab before it becomes visible and
     * unpins the displaced one. Caller holds the arena lock.
     */
    void install(unsigned cls, VSlab *slab);

    /** Empty every slot and drop its pin, so reclaimMemory can release
     *  fully-free region slabs. Caller holds the arena lock. */
    void dropRegions();

  private:
    std::atomic<VSlab *> slots_[kNumSizeClasses][kRegions] = {};
    unsigned rotor_[kNumSizeClasses] = {}; //!< install cursor (locked)
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_CORE_CACHE_H
