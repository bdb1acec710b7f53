#include "nvalloc/large_alloc.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/size_classes.h"
#include "pm/vclock.h"

namespace nvalloc {

namespace {

constexpr uint64_t kSearchBaseNs = 40;
constexpr uint64_t kSearchStepNs = 15;

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

LargeAllocator::~LargeAllocator()
{
    auto drain = [](VehList &list) {
        while (Veh *v = list.popFront())
            delete v;
    };
    drain(activated_list_);
    drain(reclaimed_list_);
    drain(retained_list_);
}

void
LargeAllocator::init(PmDevice *dev, const NvAllocConfig &cfg,
                     BookkeepingLog *log)
{
    dev_ = dev;
    cfg_ = cfg;
    log_ = log;
    if (log_) {
        log_->setRelocateFn([](void *owner, LogEntryRef ref) {
            static_cast<Veh *>(owner)->log_ref = ref;
        });
    }
}

void
LargeAllocator::chargeSearch(unsigned steps)
{
    VClock::advance(kSearchBaseNs + steps * kSearchStepNs,
                    TimeKind::Search);
}

Veh *
LargeAllocator::bestFit(SizeTree &tree, uint64_t size)
{
    chargeSearch(std::bit_width(tree.size()));
    return tree.lowerBound(size);
}

uint64_t
LargeAllocator::regionOf(uint64_t off) const
{
    auto it = regions_.upper_bound(off);
    NV_ASSERT(it != regions_.begin());
    --it;
    NV_ASSERT(off < it->first + it->second);
    return it->first;
}

uint64_t
LargeAllocator::largestFreeExtent() const
{
    uint64_t best = 0;
    for (const SizeTree *tree : {&reclaimed_tree_, &retained_tree_}) {
        if (const Veh *veh = tree->last())
            best = std::max(best, veh->size);
    }
    return best;
}

bool
LargeAllocator::spansRegion(const Veh *veh) const
{
    uint64_t region = regionOf(veh->off);
    return veh->off == region + kRegionHeaderSize &&
           veh->size == regions_.at(region) - kRegionHeaderSize;
}

bool
LargeAllocator::overQuota(uint64_t bytes)
{
    if (cfg_.capacity_quota_bytes == 0 ||
        activated_bytes_ + bytes <= cfg_.capacity_quota_bytes)
        return false;
    setFailure(NvStatus::QuotaExceeded);
    return true;
}

bool
LargeAllocator::regionTableAdd(uint64_t region_off, uint64_t size)
{
    uint64_t *table = regionTable(*dev_);
    for (unsigned i = 0; i < kRegionTableSlots; ++i) {
        if (loadRegionWord(table[i]) == 0) {
            storeRegionWord(table[i], packRegionEntry(region_off, size));
            dev_->persistFence(&table[i], sizeof(uint64_t),
                               TimeKind::FlushMeta);
            regions_[region_off] = size;
            return true;
        }
    }
    return false;
}

void
LargeAllocator::regionTableRemove(uint64_t region_off)
{
    regions_.erase(region_off);
    uint64_t *table = regionTable(*dev_);
    for (unsigned i = 0; i < kRegionTableSlots; ++i) {
        uint64_t e = loadRegionWord(table[i]);
        if (e != 0 && regionEntryOff(e) == region_off) {
            storeRegionWord(table[i], 0);
            dev_->persistFence(&table[i], sizeof(uint64_t),
                               TimeKind::FlushMeta);
            return;
        }
    }
    NV_PANIC("region missing from persistent table");
}

Veh *
LargeAllocator::openRegion(uint64_t total)
{
    uint64_t off = dev_->tryMapRegion(total);
    if (off == 0) {
        setFailure(NvStatus::OutOfMemory);
        return nullptr;
    }
    if (!regionTableAdd(off, total)) {
        dev_->unmapRegion(off, total);
        setFailure(NvStatus::RegionTableFull);
        return nullptr;
    }
    count(StatCounter::LargeRegionsMapped);
    if (!log_) {
        auto &slots = desc_free_[off];
        for (unsigned i = kDescsPerRegion; i-- > 0;)
            slots.push_back(i);
    }
    Veh *veh = new Veh;
    veh->off = off + kRegionHeaderSize;
    veh->size = total - kRegionHeaderSize;
    rtree_.setRange(veh->off, veh->size, veh);
    return veh;
}

void
LargeAllocator::closeRegion(Veh *veh)
{
    NV_ASSERT(spansRegion(veh));
    uint64_t region = veh->off - kRegionHeaderSize;
    rtree_.setRange(veh->off, veh->size, nullptr);
    regionTableRemove(region);
    desc_free_.erase(region);
    // A retained data area was decommitted when it was demoted.
    dev_->unmapRegion(region, veh->size + kRegionHeaderSize,
                      veh->state == Veh::State::Retained ? veh->size : 0);
    count(StatCounter::LargeRegionsUnmapped);
    delete veh;
}

Veh *
LargeAllocator::newRegion()
{
    Veh *veh = openRegion(kRegionSize);
    if (!veh)
        return nullptr;
    veh->freed_at = VClock::now();
    insertFree(veh, Veh::State::Reclaimed);
    if (!log_)
        descriptorWrite(veh, 2);
    return veh;
}

void
LargeAllocator::insertFree(Veh *veh, Veh::State state)
{
    veh->state = state;
    if (state == Veh::State::Reclaimed) {
        reclaimed_tree_.insert(veh, veh->size);
        reclaimed_list_.pushBack(veh);
        reclaimed_bytes_ += veh->size;
        // The decay window restarts only when the dirty pool grows
        // past its previous high-water mark; steady-state churn that
        // recycles the same extents lets the smootherstep limit keep
        // falling (jemalloc's epoch behaviour).
        if (reclaimed_bytes_ > reclaimed_peak_) {
            reclaimed_peak_ = reclaimed_bytes_;
            decay_epoch_start_ = VClock::now();
        }
    } else {
        retained_tree_.insert(veh, veh->size);
        retained_list_.pushBack(veh);
        retained_bytes_ += veh->size;
    }
}

void
LargeAllocator::removeFree(Veh *veh)
{
    if (veh->state == Veh::State::Reclaimed) {
        reclaimed_tree_.erase(veh);
        reclaimed_list_.remove(veh);
        reclaimed_bytes_ -= veh->size;
    } else {
        NV_ASSERT(veh->state == Veh::State::Retained);
        retained_tree_.erase(veh);
        retained_list_.remove(veh);
        retained_bytes_ -= veh->size;
    }
}

Veh *
LargeAllocator::splitFront(Veh *veh, uint64_t size)
{
    NV_ASSERT(veh->size > size);
    count(StatCounter::LargeSplits);
    chargeSearch(2);

    Veh *front = new Veh;
    front->off = veh->off;
    front->size = size;

    // Every page of the remainder already resolves to veh; only the
    // front's pages are remapped, below.
    removeFree(veh);
    veh->off += size;
    veh->size -= size;
    insertFree(veh, veh->state); // remainder keeps its commit state
    if (!log_)
        descriptorWrite(veh, 2);

    rtree_.setRange(front->off, front->size, front);
    return front;
}

bool
LargeAllocator::activate(Veh *veh, bool is_slab,
                         const PreLogHook &pre_log)
{
    if (pre_log)
        pre_log(veh->off);
    if (log_) {
        // Append before publishing the volatile state so a log-region
        // exhaustion can be undone without unwinding list membership.
        LogEntryRef ref = log_->append(is_slab ? kLogSlab : kLogNormal,
                                       veh->off, veh->size, veh);
        if (!ref.valid()) {
            setFailure(NvStatus::LogExhausted);
            return false;
        }
        veh->log_ref = ref;
    }
    veh->state = Veh::State::Activated;
    ++veh->reuse_epoch;
    veh->is_slab = is_slab;
    activated_list_.pushBack(veh);
    activated_bytes_ += veh->size;
    if (!log_)
        descriptorWrite(veh, 1);
    return true;
}

void
LargeAllocator::retire(Veh *veh)
{
    NV_ASSERT(veh->state == Veh::State::Activated);
    activated_list_.remove(veh);
    activated_bytes_ -= veh->size;

    if (log_) {
        log_->tombstone(veh->log_ref);
        veh->log_ref = LogEntryRef{};
    } else {
        descriptorWrite(veh, 2);
    }
}

uint64_t
LargeAllocator::allocateDirect(uint64_t size,
                               const PreLogHook &pre_log)
{
    uint64_t total =
        alignUp(size + kRegionHeaderSize, PmDevice::kRegionAlign);
    if (total - kRegionHeaderSize >= (uint64_t{1} << 26)) {
        // Unrepresentable in the log entry's size field.
        setFailure(NvStatus::InvalidArgument);
        return 0;
    }
    // Re-check the quota against the full direct-mapping footprint,
    // which exceeds the caller's rounded request by the region header
    // and region-alignment padding.
    if (overQuota(total - kRegionHeaderSize))
        return 0;
    Veh *veh = openRegion(total);
    if (!veh)
        return 0;
    veh->is_direct = true;
    if (!activate(veh, false, pre_log)) {
        closeRegion(veh);
        return 0;
    }
    return veh->off;
}

uint64_t
LargeAllocator::allocate(uint64_t size, bool is_slab,
                         const PreLogHook &pre_log)
{
    VLockGuard guard(lock_);
    decayTick();
    count(StatCounter::LargeAllocations);
    size = alignUp(size, kExtentAlign);

    if (overQuota(size))
        return 0;

    if (size > kLargeMax)
        return allocateDirect(size, pre_log);

    // Best fit in the reclaimed list first, then the retained list
    // (paper §4.3); a hit in retained re-commits physical memory.
    Veh *veh = bestFit(reclaimed_tree_, size);
    bool from_retained = false;
    if (!veh) {
        veh = bestFit(retained_tree_, size);
        from_retained = veh != nullptr;
    }
    if (!veh) {
        veh = newRegion();
        if (!veh)
            return 0;
    }

    if (veh->size > size) {
        Veh *front = splitFront(veh, size);
        if (from_retained)
            dev_->recommit(front->off, front->size);
        if (!activate(front, is_slab, pre_log)) {
            front->freed_at = VClock::now();
            insertFree(front, Veh::State::Reclaimed);
            return 0;
        }
        return front->off;
    }

    removeFree(veh);
    if (from_retained)
        dev_->recommit(veh->off, veh->size);
    if (!activate(veh, is_slab, pre_log)) {
        veh->freed_at = VClock::now();
        insertFree(veh, Veh::State::Reclaimed);
        return 0;
    }
    return veh->off;
}

Veh *
LargeAllocator::coalesce(Veh *veh)
{
    // Left neighbour: the page just below our start.
    Veh *left = findVeh(veh->off - 1);
    if (left && left->state == Veh::State::Reclaimed &&
        left->off + left->size == veh->off) {
        count(StatCounter::LargeCoalesces);
        chargeSearch(2);
        removeFree(left);
        left->size += veh->size;
        rtree_.setRange(veh->off, veh->size, left);
        if (!log_)
            descriptorRelease(veh);
        delete veh;
        veh = left;
        veh->state = Veh::State::Reclaimed; // reinserted by caller
    }

    Veh *right = findVeh(veh->off + veh->size);
    if (right && right->state == Veh::State::Reclaimed &&
        veh->off + veh->size == right->off) {
        count(StatCounter::LargeCoalesces);
        chargeSearch(2);
        removeFree(right);
        veh->size += right->size;
        rtree_.setRange(right->off, right->size, veh);
        if (!log_)
            descriptorRelease(right);
        delete right;
    }
    return veh;
}

void
LargeAllocator::free(uint64_t off)
{
    VLockGuard guard(lock_);
    count(StatCounter::LargeFrees);

    Veh *veh = findVeh(off);
    NV_ASSERT(veh && veh->off == off &&
              veh->state == Veh::State::Activated);
    chargeSearch(3); // R-tree lookup

    retire(veh);

    if (veh->is_direct) {
        closeRegion(veh);
        return;
    }

    veh->freed_at = VClock::now();
    veh = coalesce(veh);
    veh->freed_at = VClock::now();
    insertFree(veh, Veh::State::Reclaimed);
    if (!log_)
        descriptorWrite(veh, 2);
    decayTick();
}

bool
LargeAllocator::maintainLog(bool want_slow, bool *ran_slow,
                            uint64_t *gc_ns)
{
    if (ran_slow)
        *ran_slow = false;
    if (gc_ns)
        *gc_ns = 0;
    if (!log_)
        return false;
    VLockGuard guard(lock_);
    size_t before = log_->activeChunks();
    const uint64_t t0 = VClock::now();
    log_->fastGc();
    bool did = log_->activeChunks() != before;
    if (want_slow && log_->slowGc()) {
        did = true;
        if (ran_slow)
            *ran_slow = true;
    }
    if (gc_ns)
        *gc_ns = VClock::now() - t0;
    return did;
}

void
LargeAllocator::decayPass()
{
    VLockGuard guard(lock_);
    decayTick();
}

int
LargeAllocator::verifyReclaimedFill(uint64_t off, uint64_t size,
                                    uint64_t epoch, uint64_t check_bytes,
                                    uint8_t expect)
{
    VLockGuard guard(lock_);
    Veh *veh = findVeh(off);
    if (!veh || veh->off != off || veh->size != size ||
        veh->state != Veh::State::Reclaimed ||
        veh->reuse_epoch != epoch) {
        // Includes the reused-and-freed-again case: the extent is
        // Reclaimed again, but its contents belong to a later life —
        // the old fill proves nothing.
        return -1;
    }
    const uint8_t *p = static_cast<const uint8_t *>(dev_->at(off));
    for (uint64_t i = 0; i < check_bytes; ++i) {
        if (p[i] != expect)
            return 1;
    }
    return 0;
}

uint64_t
LargeAllocator::reclaimedEpoch(uint64_t off)
{
    VLockGuard guard(lock_);
    Veh *veh = findVeh(off);
    if (!veh || veh->off != off || veh->state != Veh::State::Reclaimed)
        return ~0ULL;
    return veh->reuse_epoch;
}

unsigned
LargeAllocator::scrubUnmappedPoison(
    unsigned max_lines,
    const std::vector<std::pair<uint64_t, uint64_t>> &keep)
{
    if (!dev_ || max_lines == 0)
        return 0;
    VLockGuard guard(lock_);
    unsigned scrubbed = 0;
    for (uint64_t off : dev_->poisonedLineOffsets()) {
        if (scrubbed >= max_lines)
            break;
        if (off < PmDevice::kRootSize)
            continue; // superblock root: never rewrite blindly
        bool protect = false;
        for (const auto &[start, len] : keep) {
            if (off >= start && off < start + len) {
                protect = true;
                break;
            }
        }
        if (protect)
            continue;
        auto it = regions_.upper_bound(off);
        if (it != regions_.begin()) {
            --it;
            if (off < it->first + it->second)
                continue; // inside a live region: the auditor's job
        }
        // Dead space: zero + persist rewrites the line and heals it.
        std::memset(dev_->at(off), 0, kCacheLine);
        dev_->persistFence(dev_->at(off), kCacheLine,
                           TimeKind::FlushMeta);
        ++scrubbed;
    }
    return scrubbed;
}

void
LargeAllocator::demote(Veh *veh)
{
    NV_ASSERT(veh->state == Veh::State::Reclaimed);
    count(StatCounter::LargeDemotions);
    removeFree(veh);
    dev_->decommit(veh->off, veh->size);
    insertFree(veh, Veh::State::Retained);
}

void
LargeAllocator::evict(Veh *veh)
{
    count(StatCounter::LargeEvictions);
    removeFree(veh);
    closeRegion(veh);
}

void
LargeAllocator::decayTick()
{
    uint64_t my_now = VClock::now();
    uint64_t seen = global_vnow_.load(std::memory_order_relaxed);
    while (my_now > seen &&
           !global_vnow_.compare_exchange_weak(seen, my_now)) {
    }
    uint64_t now = std::max(my_now, seen);

    // Reclaimed list: bounded by peak * smootherstep decay since the
    // last growth (paper §2.2; jemalloc decay with 50 ms windows). A
    // short grace period keeps whole-extent demotion granularity from
    // firing the instant the limit dips epsilon below the pool size.
    uint64_t elapsed = now - decay_epoch_start_;
    if (elapsed < kDecayWindowNs / 16)
        elapsed = 0;
    double frac = decayLimitFraction(double(elapsed),
                                     double(kDecayWindowNs));
    auto limit = uint64_t(double(reclaimed_peak_) * frac);
    while (reclaimed_bytes_ > limit) {
        Veh *oldest = reclaimed_list_.front();
        if (!oldest)
            break;
        demote(oldest);
    }
    if (reclaimed_bytes_ == 0)
        reclaimed_peak_ = 0;

    // Retained list: whole-region extents older than two windows go
    // back to the OS; partial extents stay retained (their region is
    // still live).
    Veh *veh = retained_list_.front();
    while (veh) {
        Veh *next = retained_list_.next(veh);
        if (now - veh->freed_at > 2 * kDecayWindowNs && spansRegion(veh))
            evict(veh);
        veh = next;
    }
}

void
LargeAllocator::descriptorWrite(Veh *veh, uint32_t state)
{
    uint64_t region = regionOf(veh->off);
    if (veh->desc_off == 0) {
        auto &slots = desc_free_[region];
        NV_ASSERT(!slots.empty());
        unsigned slot = slots.back();
        slots.pop_back();
        veh->desc_off = region + slot * sizeof(ExtentDesc);
    }
    auto *desc = static_cast<ExtentDesc *>(dev_->at(veh->desc_off));
    desc->offset = veh->off;
    desc->size = veh->size;
    desc->state = state;
    desc->is_slab = veh->is_slab ? 1 : 0;
    // The in-place update the paper's Fig. 2 profiles: a small write
    // at an effectively random header location.
    dev_->persistFence(desc, sizeof(ExtentDesc), TimeKind::FlushMeta);
}

void
LargeAllocator::descriptorRelease(Veh *veh)
{
    if (veh->desc_off == 0)
        return;
    auto *desc = static_cast<ExtentDesc *>(dev_->at(veh->desc_off));
    desc->offset = 0;
    desc->state = 0;
    dev_->persistFence(desc, sizeof(ExtentDesc), TimeKind::FlushMeta);
    uint64_t region = regionOf(veh->off);
    unsigned slot =
        unsigned((veh->desc_off - region) / sizeof(ExtentDesc));
    desc_free_[region].push_back(slot);
    veh->desc_off = 0;
}

Veh *
LargeAllocator::adoptActivated(uint64_t off, uint64_t size, bool is_slab,
                               LogEntryRef ref)
{
    Veh *veh = new Veh;
    veh->off = off;
    veh->size = size;
    veh->state = Veh::State::Activated;
    veh->is_slab = is_slab;
    veh->log_ref = ref;
    rtree_.setRange(off, size, veh);
    activated_list_.pushBack(veh);
    activated_bytes_ += veh->size;
    if (log_)
        log_->setOwner(ref, veh);
    return veh;
}

/** The one adoption loop of both recovery modes. */
bool
LargeAllocator::adoptRegionTable()
{
    regions_.clear();
    const uint64_t *table = regionTable(*dev_);
    for (unsigned i = 0; i < kRegionTableSlots; ++i) {
        uint64_t e = table[i];
        if (e == 0)
            continue;
        if (!regionEntryValid(e, dev_->size())) {
            regions_.clear(); // a failed open adopts nothing
            return false;
        }
        regions_[regionEntryOff(e)] = regionEntrySize(e);
    }
    return true;
}

bool
LargeAllocator::rebuildFreeSpace()
{
    if (!adoptRegionTable())
        return false;

    // Every gap between activated extents becomes a reclaimed extent
    // (paper §4.4: "treat the space gaps between active extents as
    // free extents").
    std::vector<uint64_t> to_unmap;
    for (auto &[region, total] : regions_) {
        uint64_t data = region + kRegionHeaderSize;
        uint64_t end = region + total;
        uint64_t cursor = data;
        bool any_active = false;
        while (cursor < end) {
            Veh *veh = findVeh(cursor);
            if (veh && veh->off == cursor) {
                any_active = true;
                cursor += veh->size;
                continue;
            }
            uint64_t gap_end = cursor;
            while (gap_end < end && findVeh(gap_end) == nullptr)
                gap_end += kExtentAlign;
            Veh *free_veh = new Veh;
            free_veh->off = cursor;
            free_veh->size = gap_end - cursor;
            free_veh->freed_at = VClock::now();
            rtree_.setRange(free_veh->off, free_veh->size, free_veh);
            insertFree(free_veh, Veh::State::Reclaimed);
            cursor = gap_end;
        }
        if (!any_active)
            to_unmap.push_back(region);
    }

    // Regions with no live extent at all (including crashed direct
    // regions) are compacted away immediately.
    for (uint64_t region : to_unmap) {
        Veh *veh = findVeh(region + kRegionHeaderSize);
        removeFree(veh);
        closeRegion(veh);
    }
    return true;
}

bool
LargeAllocator::recoverFromDescriptors(
    const std::function<void(uint64_t, uint64_t)> &on_slab)
{
    if (!adoptRegionTable())
        return false;
    for (auto &[region, total] : regions_) {
        (void)total;
        auto &slots = desc_free_[region];
        slots.clear();
        auto *descs = static_cast<ExtentDesc *>(dev_->at(region));
        for (unsigned i = kDescsPerRegion; i-- > 0;) {
            const ExtentDesc &d = descs[i];
            if (d.offset == 0) {
                slots.push_back(i);
                continue;
            }
            Veh *veh = new Veh;
            veh->off = d.offset;
            veh->size = d.size;
            veh->is_slab = d.is_slab != 0;
            veh->desc_off = region + i * sizeof(ExtentDesc);
            rtree_.setRange(veh->off, veh->size, veh);
            if (d.state == 1) {
                veh->state = Veh::State::Activated;
                activated_list_.pushBack(veh);
                activated_bytes_ += veh->size;
                if (veh->is_slab)
                    on_slab(veh->off, veh->size);
            } else {
                veh->freed_at = VClock::now();
                insertFree(veh, Veh::State::Reclaimed);
            }
        }
    }
    return true;
}

} // namespace nvalloc
