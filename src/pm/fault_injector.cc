#include "pm/fault_injector.h"

#include <cstring>

#include "common/size_classes.h"

namespace nvalloc {

void
FaultInjector::copyLineTorn(char *dst, const char *src, uint64_t line)
{
    if (!policy_.word_granularity) {
        std::memcpy(dst, src, kCacheLine);
        return;
    }
    for (unsigned w = 0; w < kCacheLine / 8; ++w) {
        if (wordLands(line, w))
            std::memcpy(dst + w * 8, src + w * 8, 8);
    }
}

void
FaultInjector::applyCrashImage(char *base, char *shadow,
                               uint64_t high_water,
                               const std::unordered_set<uint64_t> &staged)
{
    // Issued-but-unfenced flushes: the power cut caught the epoch
    // mid-drain, so each line lands (possibly torn) or is lost.
    for (uint64_t line : staged) {
        if (stagedLineLands(line))
            copyLineTorn(shadow + line, base + line, line);
    }

    // Dirty, never-flushed lines: ordinarily lost with the CPU cache,
    // but a fraction were evicted earlier and are durable anyway.
    if (policy_.eviction_fraction > 0.0) {
        for (uint64_t line = 0; line < high_water; line += kCacheLine) {
            if (staged.count(line))
                continue;
            if (std::memcmp(base + line, shadow + line, kCacheLine) == 0)
                continue;
            if (evictedLineLands(line))
                copyLineTorn(shadow + line, base + line, line);
        }
    }

    // Poisoned lines stay poisoned across the cut: re-stamp the
    // sentinel over whatever the torn epoch left there.
    for (uint64_t line : poisoned_) {
        if (line < high_water)
            std::memset(shadow + line, kPoisonByte, kCacheLine);
    }

    markFrozen();
}

} // namespace nvalloc
