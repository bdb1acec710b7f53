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

// The space counters' writers all hold region_mutex_, so an update is
// a relaxed load and store; readers load them without the lock.
void
add(std::atomic<size_t> &a, size_t n)
{
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

void
sub(std::atomic<size_t> &a, size_t n)
{
    a.store(a.load(std::memory_order_relaxed) - n, std::memory_order_relaxed);
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
            add(mapped_bytes_, bytes);
            addCommitted(bytes);
            return off;
        }
    }

    uint64_t off = bump_;
    if (off + bytes > cfg_.size)
        return 0;
    bump_ += bytes;
    high_water_ = bump_;
    add(mapped_bytes_, bytes);
    addCommitted(bytes);
    return off;
}

void
PmDevice::unmapRegion(uint64_t offset, size_t bytes, size_t decommitted)
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
    sub(mapped_bytes_, bytes);
    sub(committed_bytes_, bytes - decommitted);

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
        if (shadow_ || faults_.poisonedLines() != 0)
            stageLine(line);
    }
}

void
PmDevice::fence()
{
    if (cfg_.eadr)
        return;
    model_.onFence();
    if (!shadow_)
        return;
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (faults_.triggered())
        return; // post-crash-point fence: nothing can commit
    if (faults_.noteFence()) {
        // The scheduled crash point is this fence: its epoch never
        // commits; the policy decides what survives of it.
        freezeAtCrashPoint();
        return;
    }
    // Each line lands as it was flushed; a persisted write to a
    // poisoned line heals it.
    for (const auto &[line, img] : staged_) {
        std::memcpy(shadow_ + line, img.data(), kCacheLine);
        faults_.clearPoison(line);
    }
    staged_.clear();
}

void
PmDevice::stageLine(uint64_t line)
{
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (!shadow_) {
        faults_.clearPoison(line); // no media model: durable at once
        return;
    }
    if (faults_.triggered())
        return; // post-crash-point flush: lost
    staged_[line] = writeBack(base_ + line);
    if (faults_.noteFlush())
        freezeAtCrashPoint();
}

void
PmDevice::freezeAtCrashPoint()
{
    faults_.applyCrashImage(base_, shadow_, high_water_, staged_);
    staged_.clear();
}

void
PmDevice::addCommitted(size_t bytes)
{
    add(committed_bytes_, bytes);
    if (committedBytes() > peakCommittedBytes())
        peak_committed_.store(committedBytes(), std::memory_order_relaxed);
}

void
PmDevice::decommit(uint64_t offset, size_t bytes)
{
    ::madvise(base_ + offset, bytes, MADV_DONTNEED);
    if (shadow_)
        ::madvise(shadow_ + offset, bytes, MADV_DONTNEED);
    dropFaultState(offset, bytes);
    std::lock_guard<std::mutex> g(region_mutex_);
    sub(committed_bytes_, bytes);
}

void
PmDevice::dropFaultState(uint64_t offset, size_t bytes)
{
    // A released range holds no staged flushes, and remapping fresh
    // pages over a poisoned line clears its poison.
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (staged_.empty() && faults_.poisonedLines() == 0)
        return;
    for (uint64_t line = offset; line < offset + bytes;
         line += kCacheLine) {
        staged_.erase(line);
        faults_.clearPoison(line);
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
    std::lock_guard<std::mutex> g(stage_mutex_);
    // Resolve the final unfenced epoch by policy unless a scheduled
    // crash point already froze the durable image.
    if (!faults_.triggered())
        freezeAtCrashPoint();
    faults_.resetAfterCrash();
    // Roll the working image back to the last persisted state. Only
    // the range ever handed out can contain data.
    std::memcpy(base_, shadow_, high_water_);
}

void
PmDevice::setFaultPolicy(const FaultPolicy &policy)
{
    NV_ASSERT(shadow_ != nullptr);
    std::lock_guard<std::mutex> g(stage_mutex_);
    faults_.setPolicy(policy);
}

void
PmDevice::poisonLine(uint64_t off)
{
    uint64_t line = off & ~uint64_t{kCacheLine - 1};
    NV_ASSERT(line < cfg_.size);
    std::lock_guard<std::mutex> g(stage_mutex_);
    faults_.poison(line);
    std::memset(base_ + line, kPoisonByte, kCacheLine);
    if (shadow_)
        std::memset(shadow_ + line, kPoisonByte, kCacheLine);
}

void
PmDevice::clearPoison(uint64_t off)
{
    std::lock_guard<std::mutex> g(stage_mutex_);
    faults_.clearPoison(off & ~uint64_t{kCacheLine - 1});
}

std::vector<uint64_t>
PmDevice::poisonedLineOffsets() const
{
    std::lock_guard<std::mutex> g(stage_mutex_);
    std::vector<uint64_t> lines(faults_.poisonSet().begin(),
                                faults_.poisonSet().end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

bool
PmDevice::isPoisoned(const void *addr, size_t len) const
{
    if (len == 0 || faults_.poisonedLines() == 0)
        return false;
    std::lock_guard<std::mutex> g(stage_mutex_);
    uint64_t first = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    uint64_t last = (offsetOf(addr) + len - 1) & ~uint64_t{kCacheLine - 1};
    for (uint64_t line = first; line <= last; line += kCacheLine) {
        if (faults_.isPoisoned(line))
            return true;
    }
    return false;
}

} // namespace nvalloc
