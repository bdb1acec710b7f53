/**
 * @file
 * Metadata checksums for torn-persist detection.
 *
 * Two flavours, matched to the budget of the structure they protect:
 *
 *  - crc32(): CRC-32C (Castagnoli). Used where a structure has a
 *    dedicated 32-bit field (WAL entries, log chunk headers, slab
 *    headers, the superblock, KV records). Detects any single torn
 *    8-byte word within the covered range. The kernel is picked once
 *    per process: on x86-64 CPUs with SSE4.2 the crc32 instruction
 *    folds 8 bytes per step; elsewhere a byte-at-a-time table loop
 *    runs. Both compute the same function (reflected polynomial
 *    0x82f63b78, initial value and final xor 0xffffffff), so a stored
 *    checksum never depends on the CPU that wrote it.
 *  - xorFold8(): folds a 64-bit word to 8 bits with a mixing multiply
 *    and a nonzero seed. Used for the 8-byte bookkeeping-log entries,
 *    which have no room for a wider code; the seed guarantees a valid
 *    entry is never all-zero, so "never written" (zeroed media) always
 *    fails validation.
 */

#ifndef NVALLOC_COMMON_CHECKSUM_H
#define NVALLOC_COMMON_CHECKSUM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define NVALLOC_CRC32C_SSE42 1
#endif

namespace nvalloc {

namespace detail {

constexpr std::array<uint32_t, 256>
crc32cTable()
{
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = crc32cTable();

/** Portable kernel, one table lookup per byte; also the reference the
 *  tests hold the hardware kernel to. */
inline uint32_t
crc32cByTable(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = kCrc32cTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

#ifdef NVALLOC_CRC32C_SSE42

/** SSE4.2 kernel: 8 bytes per crc32 instruction, then the 4- and
 *  1-byte forms for the tail. Words are loaded with memcpy because
 *  WAL entries and KV records reach here at any alignment. */
__attribute__((target("sse4.2"))) inline uint32_t
crc32cBySse42(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t c = 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        c = _mm_crc32_u64(c, w);
    }
    auto c32 = uint32_t(c);
    if (len >= 4) {
        uint32_t w;
        std::memcpy(&w, p, 4);
        c32 = _mm_crc32_u32(c32, w);
        p += 4;
        len -= 4;
    }
    for (; len > 0; ++p, --len)
        c32 = _mm_crc32_u8(c32, *p);
    return c32 ^ 0xffffffffu;
}

inline bool
cpuHasSse42()
{
    // Runs from a static initializer, possibly before libgcc's own CPU
    // probe, so initialise the model first.
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

/** Set during static initialisation. A crc32() call that runs earlier
 *  sees false and takes the table loop, which returns the same value. */
inline const bool kCrc32cUseSse42 = cpuHasSse42();

#endif // NVALLOC_CRC32C_SSE42

} // namespace detail

/** CRC-32C of `len` bytes at `data`. */
inline uint32_t
crc32(const void *data, size_t len)
{
#ifdef NVALLOC_CRC32C_SSE42
    if (detail::kCrc32cUseSse42)
        return detail::crc32cBySse42(data, len);
#endif
    return detail::crc32cByTable(data, len);
}

/**
 * Fold a 64-bit value to 8 bits. The multiply diffuses every input bit
 * into the top byte so field-swapped values fold differently; the
 * final xor with 0xA5 makes the fold of 0 nonzero.
 */
constexpr uint8_t
xorFold8(uint64_t v)
{
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    return uint8_t((v & 0xff) ^ 0xa5);
}

} // namespace nvalloc

#endif // NVALLOC_COMMON_CHECKSUM_H
