/**
 * @file
 * Ralloc allocator model (Cai et al., ISMM'20).
 *
 * What the paper measures about Ralloc and this model reproduces:
 *  - GC-based consistency derived from the lock-free LRalloc: no
 *    per-op flushes and per-thread caches, making it the fastest
 *    baseline (NVAlloc-GC still wins by up to 6x thanks to bitmaps +
 *    volatile copies instead of embedded lists);
 *  - free lists embedded in the blocks: allocation chases a PM
 *    pointer (random read);
 *  - the open-source implementation "does not work correctly for
 *    large objects" (§6.2) — supportsLarge() is false and the
 *    harness excludes it from large-allocation figures, exactly as
 *    the paper does;
 *  - recovery by a partial scan of dirty descriptors (Fig. 18:
 *    552 ms, faster than Makalu's full GC).
 */

#ifndef NVALLOC_BASELINES_RALLOC_ALLOC_H
#define NVALLOC_BASELINES_RALLOC_ALLOC_H

#include "baselines/baseline_base.h"

namespace nvalloc {

class RallocAlloc : public BaselineAllocator
{
  public:
    explicit RallocAlloc(PmDevice &dev) : BaselineAllocator(dev, spec()) {}

    static BaselineSpec
    spec()
    {
        BaselineSpec s;
        s.name = "Ralloc";
        s.strong = false;
        s.supports_large = false;
        s.small.locking = SlabEngine::Locking::PerThread;
        s.small.freelist = SlabEngine::FreeList::Embedded;
        s.small.bitmap_flush = false;
        s.small.link_read_charge = true;
        s.small.flush_link = false;
        s.small.log_entry_flushes = 0;
        s.small.cpu_ns = 50;
        s.large_journal_entries = 0;
        s.recovery = BaselineSpec::Recovery::PartialGc;
        return s;
    }
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_RALLOC_ALLOC_H
