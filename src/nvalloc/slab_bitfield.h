/**
 * @file
 * Two-level atomic bitfield: the lock-free replacement for the
 * vlock-guarded volatile slab bitmap (ROADMAP item 1, DESIGN.md §14).
 *
 * Layout follows the llfree bitfield/tree split: the lower level is an
 * array of 64-bit words manipulated with CAS (bit set = block not
 * available), the upper level is one summary bit per word (bit set =
 * word observed full) so a claim skips exhausted words without
 * touching their cache lines. The summary is advisory — it may lag in
 * either direction under concurrent claims and releases — and every
 * claim decision is re-validated by the word CAS itself, so a stale
 * summary costs a probe, never correctness.
 *
 * Claims rotate their starting word through a shared rotor, which is
 * what spreads concurrent reservations (and therefore the persistent
 * bit flushes that follow them) across bitmap cache lines — the atomic
 * successor of popBlockSpread's line cursor.
 *
 * Exclusive-context operations (recovery rebuild, morph, repair) use
 * the relaxed set/clear/reset entry points; callers must hold the
 * slab's freeze gate (see VSlab::freeze) so no CAS claim is in flight.
 */

#ifndef NVALLOC_NVALLOC_SLAB_BITFIELD_H
#define NVALLOC_NVALLOC_SLAB_BITFIELD_H

#include <atomic>
#include <bit>
#include <cstdint>

#include "common/bitmap_ops.h"
#include "common/logging.h"

namespace nvalloc {

template <unsigned MaxBits>
class SlabBitfield
{
  public:
    static constexpr unsigned kWords = unsigned(bitmapWords(MaxBits));
    static constexpr unsigned kSummaryWords =
        unsigned(bitmapWords(kWords));

    /** Sentinel returned by claim when no bit below `limit` is free. */
    static constexpr unsigned kNone = MaxBits;

    SlabBitfield() = default;

    // -- exclusive context (freeze gate or single-threaded) ----------

    void
    reset()
    {
        for (auto &w : words_)
            w.store(0, std::memory_order_relaxed);
        for (auto &s : summary_)
            s.store(0, std::memory_order_relaxed);
    }

    void
    set(unsigned bit)
    {
        words_[bit >> 6].fetch_or(uint64_t{1} << (bit & 63),
                                  std::memory_order_relaxed);
    }

    // -- shared context ----------------------------------------------

    bool
    test(unsigned bit) const
    {
        return (words_[bit >> 6].load(std::memory_order_relaxed) >>
                (bit & 63)) &
               1;
    }

    /** Set bits below `limit`; racing claims/releases make this a
     *  snapshot, exact only in exclusive context. */
    unsigned
    popcount(unsigned limit) const
    {
        unsigned n = 0;
        for (unsigned w = 0; w * 64 < limit; ++w) {
            uint64_t v = words_[w].load(std::memory_order_relaxed);
            if ((w + 1) * 64 > limit)
                v &= (uint64_t{1} << (limit & 63)) - 1;
            n += unsigned(std::popcount(v));
        }
        return n;
    }

    /**
     * Atomically claim (0 → 1) the first free bit below `limit`,
     * scanning words from `start_word` with wraparound. Returns the
     * bit index or kNone. Every CAS loss is counted into `retries` —
     * the stats.fastpath.cas_retries feed.
     */
    unsigned
    claim(unsigned limit, unsigned start_word, uint64_t &retries)
    {
        unsigned nwords = unsigned(bitmapWords(limit));
        for (unsigned probe = 0; probe < nwords; ++probe) {
            unsigned w = (start_word + probe) % nwords;
            if (summaryTest(w))
                continue; // advisory: word observed full
            uint64_t full = fullMask(w, limit);
            uint64_t cur = words_[w].load(std::memory_order_relaxed);
            while ((cur & full) != full) {
                unsigned bit = unsigned(std::countr_one(cur));
                uint64_t want = cur | (uint64_t{1} << bit);
                if (words_[w].compare_exchange_weak(
                        cur, want, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                    if ((want & full) == full)
                        summarySet(w);
                    return w * 64 + bit;
                }
                ++retries; // cur reloaded by the failed CAS
            }
            summarySet(w); // observed full; advisory
        }
        return kNone;
    }

    /**
     * Atomically claim the first free bit in [begin, end), a word at a
     * time: mask the word to the range, take its lowest clear bit and
     * CAS it in; a lost CAS retries the word with the value it
     * reloaded. Returns the bit index or kNone. Unlike claim() it
     * neither reads nor marks the summary — the range is one bitmap
     * cache line of popBlockSpread's rotation, not a whole-slab scan.
     */
    unsigned
    claimRange(unsigned begin, unsigned end)
    {
        for (unsigned w = begin >> 6; w * 64 < end; ++w) {
            uint64_t range = rangeMask(w, begin, end);
            uint64_t cur = words_[w].load(std::memory_order_relaxed);
            while (uint64_t free = ~cur & range) {
                unsigned bit = unsigned(std::countr_zero(free));
                if (words_[w].compare_exchange_weak(
                        cur, cur | (uint64_t{1} << bit),
                        std::memory_order_acq_rel,
                        std::memory_order_relaxed))
                    return w * 64 + bit;
            }
        }
        return kNone;
    }

    /** Atomically claim one specific bit; false if already set. */
    bool
    tryClaim(unsigned bit)
    {
        uint64_t mask = uint64_t{1} << (bit & 63);
        uint64_t prev = words_[bit >> 6].fetch_or(
            mask, std::memory_order_acq_rel);
        return (prev & mask) == 0;
    }

    /** Atomically release (1 → 0) one bit and unmark its summary. */
    void
    release(unsigned bit)
    {
        uint64_t mask = uint64_t{1} << (bit & 63);
        uint64_t prev = words_[bit >> 6].fetch_and(
            ~mask, std::memory_order_acq_rel);
        NV_ASSERT(prev & mask);
        summaryClear(unsigned(bit >> 6));
    }

  private:
    /** The bits of word `w` that lie in [begin, end). */
    static uint64_t
    rangeMask(unsigned w, unsigned begin, unsigned end)
    {
        unsigned lo = begin > w * 64 ? begin - w * 64 : 0;
        unsigned hi = end < (w + 1) * 64 ? end - w * 64 : 64;
        uint64_t below_hi = hi == 64 ? ~uint64_t{0}
                                     : (uint64_t{1} << hi) - 1;
        return below_hi & ~((uint64_t{1} << lo) - 1);
    }

    static uint64_t
    fullMask(unsigned w, unsigned limit)
    {
        if ((w + 1) * 64 <= limit)
            return ~uint64_t{0};
        unsigned tail = limit & 63;
        return tail ? (uint64_t{1} << tail) - 1 : ~uint64_t{0};
    }

    bool
    summaryTest(unsigned w) const
    {
        return (summary_[w >> 6].load(std::memory_order_relaxed) >>
                (w & 63)) &
               1;
    }

    void
    summarySet(unsigned w)
    {
        summary_[w >> 6].fetch_or(uint64_t{1} << (w & 63),
                                  std::memory_order_relaxed);
    }

    void
    summaryClear(unsigned w)
    {
        summary_[w >> 6].fetch_and(~(uint64_t{1} << (w & 63)),
                                   std::memory_order_relaxed);
    }

    std::atomic<uint64_t> words_[kWords] = {};
    std::atomic<uint64_t> summary_[kSummaryWords] = {};
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_SLAB_BITFIELD_H
