#include "baselines/extent_heap.h"

#include <bit>
#include <vector>

#include "common/logging.h"

namespace nvalloc {

namespace {

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

uint64_t
ExtentHeap::newRegion()
{
    uint64_t size = kRegionSize;
    uint64_t off = dev_->mapRegion(size);
    regions_[off] = size;
    auto &slots = desc_free_[off];
    for (unsigned i = kDescsPerRegion; i-- > 0;)
        slots.push_back(i);
    insertFree(off + kRegionHeaderSize, size - kRegionHeaderSize);
    return off;
}

void
ExtentHeap::insertFree(uint64_t off, uint64_t size)
{
    free_by_size_.emplace(size, off);
    free_by_addr_.emplace(off, size);
}

void
ExtentHeap::removeFree(uint64_t off, uint64_t size)
{
    auto range = free_by_size_.equal_range(size);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == off) {
            free_by_size_.erase(it);
            free_by_addr_.erase(off);
            return;
        }
    }
    NV_PANIC("free extent index inconsistent");
}

uint64_t
ExtentHeap::takeDescSlot(uint64_t off)
{
    auto it = regions_.upper_bound(off);
    NV_ASSERT(it != regions_.begin());
    --it;
    uint64_t region = it->first;
    auto &slots = desc_free_[region];
    NV_ASSERT(!slots.empty());
    unsigned slot = slots.back();
    slots.pop_back();
    return region + slot * sizeof(ExtentDesc);
}

void
ExtentHeap::writeDesc(uint64_t desc_off, uint64_t off, uint64_t size,
                      uint32_t state)
{
    auto *desc = static_cast<ExtentDesc *>(dev_->at(desc_off));
    desc->offset = off;
    desc->size = size;
    desc->state = state;
    // The in-place bookkeeping update: a 64 B write at whatever region
    // header the best-fit landed in (random, §3.3).
    dev_->persist(desc, sizeof(ExtentDesc), TimeKind::FlushMeta);
    dev_->fence();
}

uint64_t
ExtentHeap::allocExtent(uint64_t size)
{
    size = alignUp(size, kExtentAlign);
    VLockGuard g(lock);

    // Best fit with a modeled search cost. Unlike NVAlloc's DRAM-only
    // VEHs, the originals walk free-list/tree structures stored in
    // persistent memory: every probed node is a random PM read.
    auto it = free_by_size_.lower_bound(size);
    unsigned probes = std::bit_width(free_by_size_.size()) + 2;
    for (unsigned i = 0; i < probes; ++i)
        dev_->chargeRead(false);
    VClock::advance(40 + 15 * probes, TimeKind::Search);
    if (it == free_by_size_.end()) {
        newRegion();
        it = free_by_size_.lower_bound(size);
        if (it == free_by_size_.end())
            return 0;
    }

    uint64_t off = it->second;
    uint64_t have = it->first;
    removeFree(off, have);
    if (have > size)
        insertFree(off + size, have - size);

    uint64_t desc_off = takeDescSlot(off);
    allocated_.emplace(off, Extent{size, desc_off});
    allocated_bytes_ += size;
    writeDesc(desc_off, off, size, 1);
    writeBoundaryTags(off, size);
    return off;
}

void
ExtentHeap::writeBoundaryTags(uint64_t off, uint64_t size)
{
    // Header/footer boundary tags at the extent's ends, as PMDK's
    // chunk headers and Makalu's block headers keep for coalescing:
    // two more small writes at effectively random heap locations.
    auto *head = static_cast<uint64_t *>(dev_->at(off));
    auto *foot = static_cast<uint64_t *>(
        dev_->at(off + size - kCacheLine));
    head[0] = size | 1;
    foot[0] = size | 1;
    dev_->persist(head, 8, TimeKind::FlushMeta);
    dev_->persist(foot, 8, TimeKind::FlushMeta);
    dev_->fence();
}

void
ExtentHeap::freeExtent(uint64_t off)
{
    VLockGuard g(lock);
    // Coalescing consults both neighbours' boundary tags in PM.
    dev_->chargeRead(false);
    dev_->chargeRead(false);
    auto it = allocated_.find(off);
    NV_ASSERT(it != allocated_.end());
    uint64_t size = it->second.size;
    uint64_t desc_off = it->second.desc_off;
    allocated_.erase(it);
    allocated_bytes_ -= size;

    // Coalesce with adjacent free extents within the region.
    uint64_t region = std::prev(regions_.upper_bound(off))->first;
    uint64_t lo = region + kRegionHeaderSize;
    uint64_t hi = region + regions_[region];

    auto right = free_by_addr_.find(off + size);
    if (right != free_by_addr_.end() && right->first < hi) {
        uint64_t rsize = right->second;
        removeFree(off + size, rsize);
        size += rsize;
    }
    auto left = free_by_addr_.lower_bound(off);
    if (left != free_by_addr_.begin()) {
        --left;
        if (left->first >= lo && left->first + left->second == off) {
            uint64_t loff = left->first;
            uint64_t lsize = left->second;
            removeFree(loff, lsize);
            off = loff;
            size += lsize;
        }
    }
    insertFree(off, size);

    // In-place record update marks the extent free; the (possibly
    // coalesced) free run gets fresh boundary tags.
    writeDesc(desc_off, off, size, 2);
    writeBoundaryTags(off, size);
    // Return the slot.
    uint64_t reg = std::prev(regions_.upper_bound(desc_off))->first;
    desc_free_[reg].push_back(
        unsigned((desc_off - reg) / sizeof(ExtentDesc)));
}

bool
ExtentHeap::isAllocated(uint64_t off) const
{
    return allocated_.count(off) != 0;
}

} // namespace nvalloc
