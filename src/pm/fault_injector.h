/**
 * @file
 * Fault injection for the emulated persistent memory device.
 *
 * Every shadow PmDevice follows one durability rule. A flush stages
 * its line with the content the line holds at that moment (the cache
 * writing it back); a fence commits the staged snapshots to the
 * durable image; stores made after a line's flush reach media only
 * through a later flush of that line. What a crash does to the last,
 * unfenced epoch is this file's FaultPolicy. The default lands every
 * staged line whole, which is the plain ADR device: a crash loses
 * exactly the never-flushed stores. Real Optane DIMMs fail in finer
 * ways, and allocator bugs hide in exactly those modes:
 *
 *  - *Torn persists*: a flush that was issued but whose fence never
 *    retired gives no durability guarantee; at the power cut some of
 *    the epoch's pending lines have reached media, others have not,
 *    and within a line only 8-byte aligned words are atomic (x86
 *    store atomicity / DIMM ECC word granularity).
 *  - *Early evictions*: a dirty line that was never flushed may still
 *    be durable — the cache evicted it at some arbitrary earlier
 *    point. Recovery must therefore tolerate metadata that persisted
 *    *ahead* of its WAL entry, not only behind it.
 *  - *Media poison*: a failed media write leaves a line that returns a
 *    poison sentinel on read; consumers must detect and contain it
 *    rather than interpret garbage.
 *
 * A crash (explicit, or scheduled at the Nth flush/fence via
 * armCrashAtFlush/armCrashAtFence) applies the policy to the final
 * epoch: each staged line lands with probability
 * `staged_persist_fraction`, each dirty-unflushed line lands with
 * probability `eviction_fraction`, and with `word_granularity` a
 * landing line may tear at 8-byte boundaries. All coins are
 * deterministic in (seed, line address), so a sweep over crash points
 * is exactly reproducible.
 */

#ifndef NVALLOC_PM_FAULT_INJECTOR_H
#define NVALLOC_PM_FAULT_INJECTOR_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace nvalloc {

/** What survives of the crash epoch; all coins seeded + per-line. */
struct FaultPolicy
{
    uint64_t seed = 1;

    /** Fraction of issued-but-unfenced flushes that reach media. 1.0
     *  (the default) lands every flushed line as it was flushed. */
    double staged_persist_fraction = 1.0;

    /** Fraction of dirty, never-flushed lines that reach media anyway
     *  (cache eviction wrote them back before the cut). */
    double eviction_fraction = 0.0;

    /** Landing lines tear at 8-byte words: each word of the line
     *  persists independently (x86 atomicity floor). */
    bool word_granularity = false;
};

/** Byte a poisoned line reads back as until rewritten. */
constexpr uint8_t kPoisonByte = 0xb5;

/** One cache line's content, as the eight 8-byte words x86 stores
 *  atomically. */
using LineImage = std::array<uint64_t, 8>;

/** Flushed, unfenced lines: line offset -> content at its last flush. */
using StagedLines = std::unordered_map<uint64_t, LineImage>;

/** The cache writing the line at `line` back to media: its content
 *  now, read while other threads may be storing to it. */
LineImage writeBack(const char *line);

class FaultInjector
{
  public:
    void setPolicy(const FaultPolicy &p) { policy_ = p; }

    // ---- crash scheduling -------------------------------------------

    /** Crash when the Nth flush from now is issued (1-based). The Nth
     *  flush itself is part of the torn epoch. */
    void
    armCrashAtFlush(uint64_t nth)
    {
        crash_at_flush_ = nth ? flushes_ + nth : 0;
    }

    /** Crash when the Nth fence from now begins (its epoch never
     *  commits). */
    void
    armCrashAtFence(uint64_t nth)
    {
        crash_at_fence_ = nth ? fences_ + nth : 0;
    }

    /** The scheduled crash point was reached; the device is frozen
     *  (no store after this point can become durable). Polled without
     *  the device lock while another thread may hit the crash point. */
    bool triggered() const { return frozen_.load(std::memory_order_acquire); }

    // ---- device-side hooks ------------------------------------------

    /** Count one flush; true if it is the scheduled crash point. */
    bool
    noteFlush()
    {
        ++flushes_;
        return crash_at_flush_ && flushes_ >= crash_at_flush_;
    }

    /** Count one fence; true if it is the scheduled crash point. */
    bool
    noteFence()
    {
        ++fences_;
        return crash_at_fence_ && fences_ >= crash_at_fence_;
    }

    /** The crash consumed the armed point; the policy stays. */
    void
    resetAfterCrash()
    {
        frozen_.store(false, std::memory_order_release);
        crash_at_flush_ = 0;
        crash_at_fence_ = 0;
    }

    // ---- deterministic coins ----------------------------------------

    bool
    stagedLineLands(uint64_t line) const
    {
        return coin(line, 0x51a9ed) < policy_.staged_persist_fraction;
    }

    bool
    evictedLineLands(uint64_t line) const
    {
        return coin(line, 0xe71c7) < policy_.eviction_fraction;
    }

    bool
    wordLands(uint64_t line, unsigned word) const
    {
        if (!policy_.word_granularity)
            return true;
        // Each word its own fair-ish coin; keep at least the fraction
        // semantics loose — word tearing is about atomicity, not rate.
        return coin(line * 8 + word, 0x3c4d) < 0.5;
    }

    // ---- media poison -----------------------------------------------

    void poison(uint64_t l) { poisoned_count_ += poisoned_.insert(l).second; }
    void clearPoison(uint64_t l) { poisoned_count_ -= poisoned_.erase(l); }
    bool isPoisoned(uint64_t line) const { return poisoned_.count(line); }

    /** Lock-free: a flush reads it to skip the heal on a clean device. */
    size_t
    poisonedLines() const
    {
        return poisoned_count_.load(std::memory_order_relaxed);
    }

    const std::unordered_set<uint64_t> &poisonSet() const
    {
        return poisoned_;
    }

    /**
     * Build the post-crash durable image: apply the policy to the
     * final epoch, writing the surviving snapshots of `staged` and
     * evicted dirty lines of `base` into `shadow`. Called by PmDevice
     * when the crash point is reached (scheduled or explicit); leaves
     * the injector frozen.
     */
    void applyCrashImage(const char *base, char *shadow,
                         uint64_t high_water, const StagedLines &staged);

  private:
    void copyLineTorn(char *dst, const LineImage &src, uint64_t line);

    /** splitmix64 of (seed, x, salt), mapped to [0, 1). */
    double
    coin(uint64_t x, uint64_t salt) const
    {
        uint64_t z = policy_.seed ^ (x * 0x9e3779b97f4a7c15ull) ^
                     (salt << 32);
        z += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return double(z >> 11) * 0x1.0p-53;
    }

    FaultPolicy policy_;
    uint64_t flushes_ = 0; //!< flushes observed (crash-point clock)
    uint64_t fences_ = 0;  //!< fences observed
    uint64_t crash_at_flush_ = 0; //!< absolute flush count, 0 = off
    uint64_t crash_at_fence_ = 0;
    std::atomic<bool> frozen_{false};
    std::unordered_set<uint64_t> poisoned_; //!< line offsets
    std::atomic<size_t> poisoned_count_{0};  //!< poisoned_.size()
};

} // namespace nvalloc

#endif // NVALLOC_PM_FAULT_INJECTOR_H
