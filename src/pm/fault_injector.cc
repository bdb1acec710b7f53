#include "pm/fault_injector.h"

#include <cstring>

#include "common/size_classes.h"

namespace nvalloc {

namespace {
/** A device word read as raw bytes: the line holds objects of any type. */
typedef uint64_t __attribute__((may_alias)) DeviceWord;
} // namespace

// Another thread may be storing into the line while it is read: a
// neighbouring word under another lock, or a word rewritten after this
// thread's flush was issued. Hardware writes back whatever the cache
// holds, and recovery must cope with either value, so this race is the
// thing modelled, not a bug. The read is hidden from TSan, one aligned
// 8-byte load per word (the x86 store-atomicity unit) through volatile,
// so the compiler cannot fold the loop into an intercepted memcpy.
__attribute__((no_sanitize("thread"))) LineImage
writeBack(const char *line)
{
    LineImage img{};
    auto *src = reinterpret_cast<const volatile DeviceWord *>(line);
    for (size_t w = 0; w < img.size(); ++w)
        img[w] = src[w];
    return img;
}

void
FaultInjector::copyLineTorn(char *dst, const LineImage &src, uint64_t line)
{
    for (unsigned w = 0; w < src.size(); ++w) {
        if (wordLands(line, w))
            std::memcpy(dst + w * 8, &src[w], 8);
    }
}

void
FaultInjector::applyCrashImage(const char *base, char *shadow,
                               uint64_t high_water,
                               const StagedLines &staged)
{
    // Issued-but-unfenced flushes: the power cut caught the epoch
    // mid-drain, so each line lands (possibly torn) as it was flushed,
    // or is lost.
    for (const auto &[line, img] : staged) {
        if (stagedLineLands(line))
            copyLineTorn(shadow + line, img, line);
    }

    // Dirty, never-flushed lines: ordinarily lost with the CPU cache,
    // but a fraction were evicted earlier and are durable anyway (a
    // clean line lands as the content it already has).
    if (policy_.eviction_fraction > 0.0) {
        for (uint64_t line = 0; line < high_water; line += kCacheLine) {
            if (!staged.count(line) && evictedLineLands(line))
                copyLineTorn(shadow + line, writeBack(base + line), line);
        }
    }

    // Poisoned lines stay poisoned across the cut: re-stamp the
    // sentinel over whatever the torn epoch left there.
    for (uint64_t line : poisoned_) {
        if (line < high_water)
            std::memset(shadow + line, kPoisonByte, kCacheLine);
    }

    frozen_.store(true, std::memory_order_release);
}

} // namespace nvalloc
