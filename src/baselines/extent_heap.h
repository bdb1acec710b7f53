/**
 * @file
 * Shared large-object heap for the baseline allocator models.
 *
 * Implements the structure §3.3 attributes to PMDK, nvm_malloc,
 * PAllocator and Makalu: the heap grows in 4 MB regions whose header
 * area holds per-extent bookkeeping records; every allocate/free/split
 * updates the owning record *in place*, which after a few
 * alloc/free cycles produces small random writes scattered across all
 * region headers — the Fig. 2 pattern — instead of NVAlloc's
 * sequential bookkeeping log.
 *
 * The heap is fully functional (best-fit, split, coalesce, reuse); the
 * baselines differ in how many extra journal flushes they wrap around
 * each operation, which they do from their own code.
 */

#ifndef NVALLOC_BASELINES_EXTENT_HEAP_H
#define NVALLOC_BASELINES_EXTENT_HEAP_H

#include <cstdint>
#include <map>
#include <vector>

#include "nvalloc/layout.h"
#include "nvalloc/vlock.h"
#include "pm/pm_device.h"

namespace nvalloc {

class ExtentHeap
{
  public:
    explicit ExtentHeap(PmDevice *dev) : dev_(dev) {}

    /** Allocate an extent (16 KB grain). Returns offset or 0. */
    uint64_t allocExtent(uint64_t size);

    /** Free a previously allocated extent. */
    void freeExtent(uint64_t off);

    /** True if `off` is the start of a live extent. */
    bool isAllocated(uint64_t off) const;

    uint64_t allocatedBytes() const { return allocated_bytes_; }
    size_t liveExtents() const { return allocated_.size(); }

    VLock lock; //!< public so callers can extend the critical section

    /** Walk all allocated extents (recovery modeling). */
    template <typename Fn>
    void
    forEachAllocated(Fn &&fn) const
    {
        for (const auto &[off, ext] : allocated_)
            fn(off, ext.size);
    }

  private:
    struct Extent
    {
        uint64_t size;
        uint64_t desc_off; //!< persistent record slot
    };

    PmDevice *dev_;

    std::multimap<uint64_t, uint64_t> free_by_size_; // size -> off
    std::map<uint64_t, uint64_t> free_by_addr_;      // off -> size
    std::map<uint64_t, Extent> allocated_;           // off -> info
    std::map<uint64_t, uint64_t> regions_;           // region -> size
    std::map<uint64_t, std::vector<unsigned>> desc_free_;

    uint64_t allocated_bytes_ = 0;

    uint64_t newRegion();
    void insertFree(uint64_t off, uint64_t size);
    void removeFree(uint64_t off, uint64_t size);
    uint64_t takeDescSlot(uint64_t off);
    void writeDesc(uint64_t desc_off, uint64_t off, uint64_t size,
                   uint32_t state);
    void writeBoundaryTags(uint64_t off, uint64_t size);
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_EXTENT_HEAP_H
