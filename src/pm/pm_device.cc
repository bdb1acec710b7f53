#include "pm/pm_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "common/logging.h"
#include "common/size_classes.h"

namespace nvalloc {

namespace {

char *
mapAnonymous(size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        throw std::system_error(
            errno, std::generic_category(),
            "PmDevice: mmap of emulated PM region failed");
    }
    return static_cast<char *>(p);
}

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

PmDevice::PmDevice(PmDeviceConfig cfg)
    : cfg_(cfg), model_(cfg.latency)
{
    cfg_.size = alignUp(cfg_.size, kRegionAlign);
    base_ = mapAnonymous(cfg_.size);
    if (cfg_.shadow)
        shadow_ = mapAnonymous(cfg_.size);
}

PmDevice::~PmDevice()
{
    delete fi();
    ::munmap(base_, cfg_.size);
    if (shadow_)
        ::munmap(shadow_, cfg_.size);
}

uint64_t
PmDevice::mapRegion(size_t bytes)
{
    uint64_t off = tryMapRegion(bytes);
    if (off == 0)
        NV_FATAL("emulated PM device exhausted");
    return off;
}

uint64_t
PmDevice::tryMapRegion(size_t bytes)
{
    bytes = alignUp(bytes, kRegionAlign);
    std::lock_guard<std::mutex> g(region_mutex_);

    // First fit from the recycled regions, splitting oversized holes.
    for (auto it = free_regions_.begin(); it != free_regions_.end(); ++it) {
        if (it->second >= bytes) {
            uint64_t off = it->first;
            size_t rest = it->second - bytes;
            free_regions_.erase(it);
            if (rest)
                free_regions_.emplace(off + bytes, rest);
            mapped_bytes_ += bytes;
            addCommitted(bytes);
            return off;
        }
    }

    uint64_t off = bump_;
    if (off + bytes > cfg_.size)
        return 0;
    bump_ += bytes;
    high_water_ = bump_;
    mapped_bytes_ += bytes;
    addCommitted(bytes);
    return off;
}

void
PmDevice::unmapRegion(uint64_t offset, size_t bytes)
{
    bytes = alignUp(bytes, kRegionAlign);
    NV_ASSERT(offset % kRegionAlign == 0 && offset + bytes <= cfg_.size);

    // Release physical pages; contents must read back as zero if the
    // range is recycled, matching a fresh mmap of a punched hole.
    ::madvise(base_ + offset, bytes, MADV_DONTNEED);
    if (shadow_)
        ::madvise(shadow_ + offset, bytes, MADV_DONTNEED);
    dropFaultState(offset, bytes);

    std::lock_guard<std::mutex> g(region_mutex_);
    mapped_bytes_ -= bytes;
    committed_bytes_ -= bytes;

    // Coalesce with neighbours to keep the hole list small.
    auto [it, inserted] = free_regions_.emplace(offset, bytes);
    NV_ASSERT(inserted);
    if (it != free_regions_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_regions_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != free_regions_.end() &&
        it->first + it->second == next->first) {
        it->second += next->second;
        free_regions_.erase(next);
    }
}

void
PmDevice::persist(const void *addr, size_t len, TimeKind kind)
{
    if (len == 0 || cfg_.eadr)
        return;
    uint64_t first = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    uint64_t last = (offsetOf(addr) + len - 1) & ~uint64_t{kCacheLine - 1};
    for (uint64_t line = first; line <= last; line += kCacheLine) {
        model_.onFlush(line, kind);
        if (!shadow_)
            continue;
        if (fi())
            stageLine(line);
        else
            std::memcpy(shadow_ + line, base_ + line, kCacheLine);
    }
}

void
PmDevice::flushLine(const void *addr, TimeKind kind)
{
    if (cfg_.eadr)
        return;
    uint64_t line = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    model_.onFlush(line, kind);
    if (!shadow_) {
        // No crash simulation: flushes are durable immediately, so a
        // persisted write heals media poison right here.
        if (fi()) {
            std::lock_guard<std::mutex> g(stage_mutex_);
            fi()->clearPoison(line);
        }
        return;
    }
    if (fi())
        stageLine(line);
    else
        std::memcpy(shadow_ + line, base_ + line, kCacheLine);
}

void
PmDevice::fence()
{
    if (cfg_.eadr)
        return;
    model_.onFence();
    if (!fi() || !shadow_)
        return;
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (fi()->triggered())
        return; // post-crash-point fence: nothing can commit
    if (fi()->noteFence()) {
        // The scheduled crash point is this fence: its epoch never
        // commits; the policy decides what survives of it.
        freezeAtCrashPoint();
        return;
    }
    for (uint64_t line : staged_)
        commitLine(line);
    staged_.clear();
}

void
PmDevice::stageLine(uint64_t line)
{
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (fi()->triggered())
        return; // post-crash-point flush: lost
    staged_.insert(line);
    if (fi()->noteFlush())
        freezeAtCrashPoint();
}

void
PmDevice::commitLine(uint64_t line)
{
    std::memcpy(shadow_ + line, base_ + line, kCacheLine);
    // A persisted write to a poisoned line heals it.
    if (fi()->isPoisoned(line))
        fi()->clearPoison(line);
}

void
PmDevice::freezeAtCrashPoint()
{
    fi()->applyCrashImage(base_, shadow_, high_water_, staged_);
    staged_.clear();
}

void
PmDevice::addCommitted(size_t bytes)
{
    committed_bytes_ += bytes;
    if (committed_bytes_ > peak_committed_)
        peak_committed_ = committed_bytes_;
}

void
PmDevice::decommit(uint64_t offset, size_t bytes)
{
    ::madvise(base_ + offset, bytes, MADV_DONTNEED);
    if (shadow_)
        ::madvise(shadow_ + offset, bytes, MADV_DONTNEED);
    dropFaultState(offset, bytes);
    std::lock_guard<std::mutex> g(region_mutex_);
    committed_bytes_ -= bytes;
}

void
PmDevice::dropFaultState(uint64_t offset, size_t bytes)
{
    // A released range holds no staged flushes, and remapping fresh
    // pages over a poisoned line clears its poison.
    if (!fi())
        return;
    std::lock_guard<std::mutex> g(stage_mutex_);
    for (uint64_t line = offset; line < offset + bytes;
         line += kCacheLine) {
        staged_.erase(line);
        fi()->clearPoison(line);
    }
}

void
PmDevice::recommit(uint64_t offset, size_t bytes)
{
    (void)offset; // pages fault back in on first touch, already zeroed
    std::lock_guard<std::mutex> g(region_mutex_);
    addCommitted(bytes);
}

void
PmDevice::crash()
{
    NV_ASSERT(shadow_ != nullptr);
    if (cfg_.eadr)
        return; // the caches are in the persistence domain
    if (fi()) {
        std::lock_guard<std::mutex> g(stage_mutex_);
        // Resolve the final unfenced epoch by policy unless a
        // scheduled crash point already froze the durable image.
        if (!fi()->triggered())
            freezeAtCrashPoint();
        fi()->resetAfterCrash();
    }
    // Roll the working image back to the last persisted state. Only
    // the range ever handed out can contain data.
    std::memcpy(base_, shadow_, high_water_);
}

FaultInjector &
PmDevice::faults()
{
    // Created lazily by whichever thread first arms a crash or poisons
    // a line, possibly while a maintenance slice reads the device: the
    // pointer is published once, under the lock, with release order.
    if (FaultInjector *existing = fi())
        return *existing;
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (!fi())
        fi_.store(new FaultInjector, std::memory_order_release);
    return *fi();
}

FaultInjector &
PmDevice::enableFaultInjection(FaultPolicy policy)
{
    NV_ASSERT(shadow_ != nullptr);
    faults().setPolicy(policy);
    return *fi();
}

void
PmDevice::poisonLine(uint64_t off)
{
    uint64_t line = off & ~uint64_t{kCacheLine - 1};
    NV_ASSERT(line < cfg_.size);
    FaultInjector &inj = faults();
    std::lock_guard<std::mutex> g(stage_mutex_);
    inj.poison(line);
    std::memset(base_ + line, kPoisonByte, kCacheLine);
    if (shadow_)
        std::memset(shadow_ + line, kPoisonByte, kCacheLine);
}

void
PmDevice::clearPoison(uint64_t off)
{
    if (fi()) {
        std::lock_guard<std::mutex> g(stage_mutex_);
        fi()->clearPoison(off & ~uint64_t{kCacheLine - 1});
    }
}

std::vector<uint64_t>
PmDevice::poisonedLineOffsets() const
{
    std::vector<uint64_t> lines;
    if (fi()) {
        std::lock_guard<std::mutex> g(stage_mutex_);
        const auto &set = fi()->poisonSet();
        lines.assign(set.begin(), set.end());
        std::sort(lines.begin(), lines.end());
    }
    return lines;
}

bool
PmDevice::isPoisoned(const void *addr, size_t len) const
{
    if (!fi() || len == 0)
        return false;
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (fi()->poisonedLines() == 0)
        return false;
    uint64_t first = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    uint64_t last = (offsetOf(addr) + len - 1) & ~uint64_t{kCacheLine - 1};
    for (uint64_t line = first; line <= last; line += kCacheLine) {
        if (fi()->isPoisoned(line))
            return true;
    }
    return false;
}

} // namespace nvalloc
