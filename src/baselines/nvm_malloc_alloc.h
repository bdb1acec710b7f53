/**
 * @file
 * nvm_malloc allocator model (Schwalb et al., ADMS'15).
 *
 * What the paper measures about nvm_malloc and this model reproduces:
 *  - volatile/non-volatile split with 8 B slab bitmaps sequentially
 *    mapped in slab headers: consecutive allocations re-flush the same
 *    line (§1, §3.1 — up to 94.4% reflushes in Fig. 1a);
 *  - a WAL whose small appended entries share cache lines;
 *  - per-size-class locking (better scaling than PMDK, worse than
 *    NVAlloc's arenas + tcaches);
 *  - large allocations through in-place header updates (Fig. 2a);
 *  - very fast recovery because metadata reconstruction is deferred
 *    to runtime deallocation (Fig. 18: 324 µs).
 */

#ifndef NVALLOC_BASELINES_NVM_MALLOC_ALLOC_H
#define NVALLOC_BASELINES_NVM_MALLOC_ALLOC_H

#include "baselines/baseline_base.h"

namespace nvalloc {

class NvmMallocAlloc : public BaselineAllocator
{
  public:
    explicit NvmMallocAlloc(PmDevice &dev) : BaselineAllocator(dev, spec()) {}

    static BaselineSpec
    spec()
    {
        BaselineSpec s;
        s.name = "nvm_malloc";
        s.strong = true;
        s.small.locking = SlabEngine::Locking::PerClass;
        s.small.shards = 4; // nvm_malloc's per-CPU arenas
        s.small.freelist = SlabEngine::FreeList::Bitmap;
        s.small.bitmap_flush = true;
        s.small.log_head_flush = false;
        s.small.log_entry_flushes = 1;
        s.small.cpu_ns = 70;
        s.large_journal_entries = 1;
        s.recovery = BaselineSpec::Recovery::WalScan;
        return s;
    }
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_NVM_MALLOC_ALLOC_H
