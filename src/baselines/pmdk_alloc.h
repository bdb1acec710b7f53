/**
 * @file
 * PMDK (libpmemobj) allocator model.
 *
 * What the paper measures about PMDK and this model reproduces:
 *  - transactional allocation: every operation journals into a lane
 *    whose header line is rewritten each time (reflush distance 0)
 *    plus an appended redo entry — PMDK's reflush ratio reaches 99.7%
 *    in Fig. 1(a);
 *  - sequentially mapped run bitmaps in persistent run headers,
 *    flushed per op (§3.1);
 *  - heap operations funneled through shared pool structures — the
 *    worst thread-scaling of the strongly consistent group (Fig. 9);
 *  - large allocations: best-fit over chunk headers updated in place
 *    (§3.3, Fig. 2), wrapped in the same transaction (Fig. 12: NVAlloc
 *    is up to 40x faster);
 *  - recovery: lane log traversal plus heap metadata walk (Fig. 18:
 *    34 ms for the 10 M-node list).
 */

#ifndef NVALLOC_BASELINES_PMDK_ALLOC_H
#define NVALLOC_BASELINES_PMDK_ALLOC_H

#include "baselines/baseline_base.h"

namespace nvalloc {

class PmdkAlloc : public BaselineAllocator
{
  public:
    explicit PmdkAlloc(PmDevice &dev) : BaselineAllocator(dev, spec()) {}

    static BaselineSpec
    spec()
    {
        BaselineSpec s;
        s.name = "PMDK";
        s.strong = true;
        s.small.locking = SlabEngine::Locking::Global;
        s.small.freelist = SlabEngine::FreeList::Bitmap;
        s.small.bitmap_flush = true;
        s.small.log_head_flush = true;  // lane header rewrite
        s.small.log_entry_flushes = 1;  // redo entry
        s.small.cpu_ns = 90;
        s.large_journal_entries = 2;    // tx add_range + commit
        s.large_journal_head = true;
        s.recovery = BaselineSpec::Recovery::MetaWalk;
        return s;
    }
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_PMDK_ALLOC_H
