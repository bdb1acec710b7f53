/**
 * @file
 * PAllocator model (Oukid et al., VLDB'17). The original is closed
 * source; like the paper's authors, we reimplement it from its paper.
 *
 * What NVAlloc's paper measures about PAllocator and this model
 * reproduces:
 *  - one dedicated small allocator per thread (segregated fit): the
 *    best scalability of the strong group for thread-local workloads
 *    (§6.7: beats NVAlloc-LOG on 64-thread Threadtest under eADR) but
 *    worse under cross-thread free patterns (Prod-con, Larson), where
 *    every remote free must take the owner's lock;
 *  - 2 B block metadata in page headers plus micro-logs: small
 *    same-line writes, flushed per op → reflush-bound on ADR
 *    (Fig. 1a: up to 98.8% reflushes);
 *  - large allocations through persistent headers updated in place,
 *    indexed by volatile trees (Fig. 2b).
 */

#ifndef NVALLOC_BASELINES_PALLOCATOR_H
#define NVALLOC_BASELINES_PALLOCATOR_H

#include "baselines/baseline_base.h"

namespace nvalloc {

class PalAllocator : public BaselineAllocator
{
  public:
    explicit PalAllocator(PmDevice &dev) : BaselineAllocator(dev, spec()) {}

    static BaselineSpec
    spec()
    {
        BaselineSpec s;
        s.name = "PAllocator";
        s.strong = true;
        s.small.locking = SlabEngine::Locking::PerThread;
        s.small.freelist = SlabEngine::FreeList::Bitmap;
        s.small.bitmap_flush = true;  // the 2 B page-header metadata
        s.small.log_head_flush = false;
        s.small.log_entry_flushes = 1; // micro-log
        s.small.cpu_ns = 55;
        s.large_journal_entries = 1;
        s.recovery = BaselineSpec::Recovery::MetaWalk;
        return s;
    }
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_PALLOCATOR_H
