/**
 * @file
 * Emulated persistent memory device.
 *
 * Stands in for an Intel Optane DIMM exposed through an Ext4-DAX heap
 * file. The device is one large virtual region; allocators carve
 * "mapped regions" out of it (the analogue of mmap-ing segments of the
 * heap file), write to it with ordinary stores, and make stores
 * durable with persist()/fence(), which are routed through the
 * LatencyModel for cost accounting.
 *
 * Crash simulation: with the shadow enabled, the device keeps a second
 * image, the media. A flush stages its line as it is at that moment;
 * a fence copies the staged snapshots to the media; crash() resolves
 * whatever is still staged by the FaultPolicy and replaces the working
 * image with the media. So a crash keeps each line as of its last
 * flush and discards every later store — exactly the state a power cut
 * leaves in ADR hardware (CPU caches lost, DIMM contents kept).
 * Recovery code is tested against these torn states.
 *
 * eADR (paper §6.7) is a property of the device, fixed at
 * construction: the CPU caches are inside the persistence domain, so
 * persist(), flushLine() and fence() return at once (nothing is
 * staged, priced or counted — the paper's "all clwb removed") and
 * crash() keeps every store.
 *
 * Fault injection: setFaultPolicy() chooses what a crash (explicit or
 * scheduled at the Nth flush/fence) makes of the final epoch: torn
 * lines, 8-byte word atomicity, dropped flushes, early evictions. The
 * default lands every staged line whole. The device also carries a
 * media-poison set: poisoned lines read back as a sentinel until a
 * rewrite is persisted, and isPoisoned() lets recovery react instead
 * of interpreting garbage.
 *
 * The device outlives allocator instances: destroying an allocator and
 * re-attaching a new one to the same device emulates a process restart
 * over the same heap file.
 */

#ifndef NVALLOC_PM_PM_DEVICE_H
#define NVALLOC_PM_PM_DEVICE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "pm/fault_injector.h"
#include "pm/latency_model.h"

namespace nvalloc {

struct PmDeviceConfig
{
    size_t size = size_t{8} << 30;  //!< virtual size (NORESERVE)
    bool shadow = false;            //!< enable crash simulation
    bool eadr = false;              //!< caches persistent: flushes are no-ops
    LatencyParams latency{};
};

class PmDevice
{
  public:
    /** Space reserved at offset 0 for an allocator's superblock. */
    static constexpr size_t kRootSize = 4096;
    /** Region grain; every mapRegion result is aligned to this. */
    static constexpr size_t kRegionAlign = 64 * 1024;

    explicit PmDevice(PmDeviceConfig cfg = {});
    ~PmDevice();

    PmDevice(const PmDevice &) = delete;
    PmDevice &operator=(const PmDevice &) = delete;

    char *base() const { return base_; }
    size_t size() const { return cfg_.size; }
    bool eadr() const { return cfg_.eadr; }

    uint64_t
    offsetOf(const void *p) const
    {
        return static_cast<uint64_t>(
            static_cast<const char *>(p) - base_);
    }

    void *
    at(uint64_t offset) const
    {
        return base_ + offset;
    }

    /** True if p points into this device's region. */
    bool
    contains(const void *p) const
    {
        auto *c = static_cast<const char *>(p);
        return c >= base_ && c < base_ + cfg_.size;
    }

    /** First kRootSize bytes; allocators anchor their persistent
     *  superblock here so recovery can find it. */
    void *root() const { return base_; }

    /**
     * Carve a zeroed region of `bytes` (rounded up to kRegionAlign)
     * out of the device — the analogue of extending/mmap-ing the heap
     * file. Returns the region's offset.
     */
    uint64_t mapRegion(size_t bytes);

    /**
     * Like mapRegion, but returns 0 instead of dying when the device
     * has no room left. Offset 0 is the root area and is never handed
     * out as a region, so it is unambiguous as a failure sentinel.
     * Allocators use this on their exhaustion paths so a full device
     * degrades to a failed allocation instead of killing the process.
     */
    uint64_t tryMapRegion(size_t bytes);

    /**
     * Return a region to the device (analogue of munmap +
     * fallocate(PUNCH_HOLE)): the physical pages are released and the
     * range becomes reusable by later mapRegion calls. Contents are
     * zero if re-mapped. `decommitted` bytes of the range were already
     * released by decommit() and no longer count as committed.
     */
    void unmapRegion(uint64_t offset, size_t bytes, size_t decommitted = 0);

    /**
     * Release the physical pages of a still-mapped range (analogue of
     * madvise(MADV_DONTNEED) on a DAX mapping): the offsets stay valid
     * but contents are lost and the bytes stop counting as consumed.
     * Models the "retained" extent state of the decay mechanism.
     */
    void decommit(uint64_t offset, size_t bytes);

    /** Re-acquire physical pages for a decommitted range (zeroed). */
    void recommit(uint64_t offset, size_t bytes);

    /** Bytes currently mapped (virtual reservation). */
    size_t
    mappedBytes() const
    {
        return mapped_bytes_.load(std::memory_order_relaxed);
    }

    /** Bytes currently consuming physical persistent memory; this is
     *  what the paper's space-consumption figures measure. */
    size_t
    committedBytes() const
    {
        return committed_bytes_.load(std::memory_order_relaxed);
    }

    size_t
    peakCommittedBytes() const
    {
        return peak_committed_.load(std::memory_order_relaxed);
    }

    void
    resetPeak()
    {
        std::lock_guard<std::mutex> g(region_mutex_);
        peak_committed_.store(committedBytes(), std::memory_order_relaxed);
    }

    /** Flush every cache line overlapping [addr, addr+len): each is
     *  staged as it is now, and durable once a fence commits it. */
    void persist(const void *addr, size_t len, TimeKind kind);

    /** Flush a single line containing `addr`. */
    void flushLine(const void *addr, TimeKind kind) { persist(addr, 1, kind); }

    void fence();

    /**
     * Charge the latency of a PM read that misses the CPU cache (e.g.
     * chasing an embedded free-list pointer, as Makalu/Ralloc do).
     * Reads are not tracked per line — callers invoke this exactly
     * where their access pattern defeats the cache.
     */
    void
    chargeRead(bool sequential)
    {
        VClock::advance(sequential ? 100 : 300, TimeKind::PmRead);
    }

    /** persist + fence in one call. */
    void
    persistFence(const void *addr, size_t len, TimeKind kind)
    {
        persist(addr, len, kind);
        fence();
    }

    /**
     * Simulate a power failure: discard all stores that were never
     * persisted. Region bookkeeping is untouched (the heap file keeps
     * its length); only byte contents roll back. Requires shadow mode.
     * Flushed lines no fence committed land as the fault policy says.
     * On an eADR device every store survives.
     */
    void crash();

    // ---- fault injection --------------------------------------------

    /** What the next crashes make of the unfenced epoch; requires
     *  shadow mode. */
    void setFaultPolicy(const FaultPolicy &policy);

    /** Schedule a crash at the Nth flush from now. Sweeps at flush
     *  granularity arm this per point. */
    void
    armCrashAtFlush(uint64_t nth)
    {
        std::lock_guard<std::mutex> g(stage_mutex_);
        faults_.armCrashAtFlush(nth);
    }

    /** Schedule a crash at the Nth fence from now. */
    void
    armCrashAtFence(uint64_t nth)
    {
        std::lock_guard<std::mutex> g(stage_mutex_);
        faults_.armCrashAtFence(nth);
    }

    /** True once a scheduled crash point has been reached: every later
     *  store is doomed, so workloads can stop early. */
    bool crashTriggered() const { return faults_.triggered(); }

    // ---- media poison -----------------------------------------------

    /**
     * Poison the media line containing device offset `off`: the line
     * reads back as kPoisonByte until rewritten (a persisted write to
     * a poisoned line heals it, as on real DIMMs).
     */
    void poisonLine(uint64_t off);

    /** Clear poison without rewriting (administrative repair). */
    void clearPoison(uint64_t off);

    /** True if any byte of [addr, addr+len) lies in a poisoned line. */
    bool isPoisoned(const void *addr, size_t len = 1) const;

    size_t poisonedLineCount() const { return faults_.poisonedLines(); }

    /** Sorted device offsets of every poisoned media line. Lets an
     *  auditor classify each poisoned line (free vs live data) instead
     *  of probing the whole device with isPoisoned(). */
    std::vector<uint64_t> poisonedLineOffsets() const;

    LatencyModel &model() { return model_; }
    const LatencyModel &model() const { return model_; }

    /** Statistics shortcut. */
    FlushClassCounts flushCounts() const { return model_.counts(); }

  private:
    PmDeviceConfig cfg_;
    char *base_ = nullptr;
    char *shadow_ = nullptr;
    LatencyModel model_;

    std::mutex region_mutex_;
    uint64_t bump_ = kRegionAlign;     // offset 0 holds the root area
    uint64_t high_water_ = kRegionAlign;
    std::map<uint64_t, size_t> free_regions_; // offset -> size
    // Space accounting: written under region_mutex_, read lock-free by
    // the getters above (and so by a heap's ctl tree).
    std::atomic<size_t> mapped_bytes_{0};
    std::atomic<size_t> committed_bytes_{0};
    std::atomic<size_t> peak_committed_{0};

    // stage_mutex_ guards the staged lines and the injector's policy,
    // crash clocks and poison set.
    mutable std::mutex stage_mutex_;
    FaultInjector faults_;
    StagedLines staged_;

    void addCommitted(size_t bytes);
    void stageLine(uint64_t line);
    void freezeAtCrashPoint();
    void dropFaultState(uint64_t offset, size_t bytes);
};

} // namespace nvalloc

#endif // NVALLOC_PM_PM_DEVICE_H
