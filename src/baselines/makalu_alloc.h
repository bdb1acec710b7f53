/**
 * @file
 * Makalu allocator model (Bhandari et al., OOPSLA'16).
 *
 * What the paper measures about Makalu and this model reproduces:
 *  - GC-based consistency: small allocations persist almost no
 *    metadata online (offline GC rebuilds it), so there are no
 *    per-op bitmap flushes;
 *  - free blocks managed as linked lists embedded in the blocks
 *    themselves: every allocation chases a pointer stored in
 *    persistent memory — a random PM read — and the blocks' data
 *    locality is poor (§6.2: NVAlloc-GC's bitmaps + volatile copies
 *    beat this by up to 70x at scale);
 *  - central heap structures behind a global lock once thread-local
 *    fridges drain (the scaling wall in Fig. 10);
 *  - occasional header persistence (every few ops) for restartability;
 *  - recovery by conservative GC over every live object (Fig. 18:
 *    911 ms, the slowest of the open-source allocators).
 */

#ifndef NVALLOC_BASELINES_MAKALU_ALLOC_H
#define NVALLOC_BASELINES_MAKALU_ALLOC_H

#include "baselines/baseline_base.h"

namespace nvalloc {

class MakaluAlloc : public BaselineAllocator
{
  public:
    explicit MakaluAlloc(PmDevice &dev) : BaselineAllocator(dev, spec()) {}

    static BaselineSpec
    spec()
    {
        BaselineSpec s;
        s.name = "Makalu";
        s.strong = false;
        s.small.locking = SlabEngine::Locking::Global;
        s.small.freelist = SlabEngine::FreeList::Embedded;
        s.small.bitmap_flush = false;
        s.small.link_read_charge = true;
        s.small.flush_link = false;
        s.small.log_entry_flushes = 0;
        s.small.periodic_meta_flush = 8;
        s.small.cpu_ns = 90;
        s.large_journal_entries = 1;
        s.recovery = BaselineSpec::Recovery::FullGc;
        return s;
    }
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_MAKALU_ALLOC_H
