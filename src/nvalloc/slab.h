/**
 * @file
 * Slabs: 64 KB containers of fixed-size blocks (paper §2.2, §5.1, §5.2).
 *
 * Each slab has a persistent 4 KB header (SlabHeader in layout.h) and a
 * volatile mirror, the VSlab, holding everything recovery can rebuild:
 * a volatile availability bitmap for fast free-block search, counters,
 * and the morphing bookkeeping (cnt_slab / cnt_block, paper Fig. 5).
 *
 * Two bitmaps with different meanings:
 *  - persistent header bitmap: bit set = block allocated to the user;
 *    this is what recovery trusts. Bits are placed through the
 *    InterleaveMap so consecutive allocations flush different lines.
 *  - volatile vbitmap (logical block order, a SlabBitfield): bit set =
 *    block not available for handout (allocated, lent to a tcache, or
 *    overlapped by live old-class blocks during morphing).
 *
 * Concurrency (ISSUE 9, DESIGN.md §14): the volatile bitmap, the
 * counters and the persistent bit writes are all atomic, so the hot
 * alloc/free paths mutate a slab without the arena VLock. Exclusive
 * operations that rewrite whole structures non-atomically (morphTo,
 * rebuildPersistentBitmap, repairHeader, slab release) serialize
 * against in-flight fast operations through the freeze gate: every
 * fast-path mutation runs between enterFast()/exitFast(), and freeze()
 * raises the frozen flag then waits the in-flight count down to zero.
 * A gate holder must never acquire a VLock (freezers hold one).
 */

#ifndef NVALLOC_NVALLOC_SLAB_H
#define NVALLOC_NVALLOC_SLAB_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/bitmap_ops.h"
#include "common/lru_list.h"
#include "common/size_classes.h"
#include "nvalloc/interleave.h"
#include "nvalloc/layout.h"
#include "nvalloc/slab_bitfield.h"
#include "pm/pm_device.h"

namespace nvalloc {

class Arena;

/** Derived per-size-class slab geometry. */
struct SlabGeometry
{
    unsigned size_class = 0;
    unsigned block_size = 0;
    unsigned capacity = 0;
    InterleaveMap map;

    static SlabGeometry
    compute(unsigned cls, unsigned stripes)
    {
        SlabGeometry g;
        g.size_class = cls;
        g.block_size = classToSize(cls);
        g.capacity = (kSlabSize - kSlabHeaderSize) / g.block_size;
        g.map = InterleaveMap::build(g.capacity, 1, stripes);
        return g;
    }
};

class VSlab
{
  public:
    /** Format a freshly mapped 64 KB extent as a slab. */
    VSlab(PmDevice *dev, uint64_t slab_off, unsigned cls, unsigned stripes,
          bool gc_mode);

    /** Adopt an existing slab during recovery (header already valid;
     *  rebuilds all volatile state from the persistent header). */
    VSlab(PmDevice *dev, uint64_t slab_off, bool gc_mode);

    /**
     * Recovery gate: can the header at `slab_off` be trusted? Checks
     * media poison, magic, the header crc (when `verify_crc`), and
     * that the geometry fields are self-consistent. Recovery
     * quarantines slabs that fail instead of adopting them — a
     * corrupt capacity or stripe count would send markFree/claimBlock
     * into wild memory.
     */
    static bool headerLooksValid(PmDevice *dev, uint64_t slab_off,
                                 bool verify_crc);

    // -- geometry ---------------------------------------------------

    uint64_t slabOffset() const { return slab_off_; }
    unsigned sizeClass() const { return geo_.size_class; }
    unsigned blockSize() const { return geo_.block_size; }
    unsigned capacity() const { return geo_.capacity; }
    SlabHeader *header() const { return hdr_; }

    uint64_t
    blockOffset(unsigned idx) const
    {
        return slab_off_ + kSlabHeaderSize +
               uint64_t(idx) * geo_.block_size;
    }

    /** Logical block index of a device offset, or capacity() if the
     *  offset is not a block start of the current geometry. */
    unsigned blockIndexOf(uint64_t off) const;

    /** Cache line (within the persistent bitmap) holding this block's
     *  bit; tcaches bucket blocks by this. */
    unsigned
    bitLineOf(unsigned idx) const
    {
        return geo_.map.physical(idx) / (kCacheLine * 8);
    }

    // -- availability (volatile) ------------------------------------

    unsigned
    available() const
    {
        return avail_.load(std::memory_order_relaxed);
    }

    unsigned
    liveBlocks() const
    {
        return live_.load(std::memory_order_relaxed);
    }

    unsigned
    lentBlocks() const
    {
        return lent_.load(std::memory_order_relaxed);
    }

    /** Take one available block for a tcache; marks it unavailable and
     *  lent. Returns capacity() if none. */
    unsigned popBlock();

    /**
     * Like popBlock() but starts the scan at a rotating bitmap line so
     * successive pops come from different cache lines — this is what
     * lets the interleaved tcache layout help even when the bitmap
     * itself is mapped sequentially (paper Fig. 11 "+Interleaved").
     */
    unsigned popBlockSpread();

    /** A lent block was returned unallocated (tcache flush). */
    void unlendBlock(unsigned idx);

    // -- lock-free fast path (core_cache.h, DESIGN.md §14) ----------

    /**
     * Enter the fast-op gate: register this thread as an in-flight
     * fast mutator. Returns false — without entering — when the slab
     * is frozen (morph/repair/release in progress, or the slab was
     * released: released slabs stay frozen forever); the caller then
     * takes the locked fallback. Every fast-path mutation of slab
     * state must run between a successful enterFast() and exitFast(),
     * and must not acquire any VLock in between.
     */
    bool
    enterFast()
    {
        uint32_t prev = gate_.fetch_add(1, std::memory_order_acq_rel);
        if (prev & kFrozen) {
            gate_.fetch_sub(1, std::memory_order_release);
            return false;
        }
        return true;
    }

    /** Leave the gate and publish a new observation epoch. */
    void
    exitFast()
    {
        fp_epoch_.fetch_add(1, std::memory_order_release);
        gate_.fetch_sub(1, std::memory_order_release);
    }

    /**
     * Block new fast ops and wait out the in-flight ones. The caller
     * (who holds the owning arena's VLock) then has exclusive access
     * to all slab state, including plain non-atomic rewrites — the
     * gate's acquire/release pair is the happens-before edge.
     */
    void
    freeze()
    {
        gate_.fetch_or(kFrozen, std::memory_order_acq_rel);
        // Single freezer by construction (freezing requires the arena
        // lock); wait the in-flight count down. Fast ops are bounded —
        // no VLock may be taken inside the gate — so this terminates.
        while (gate_.load(std::memory_order_acquire) != kFrozen)
            std::this_thread::yield();
    }

    void
    unfreeze()
    {
        gate_.fetch_and(~kFrozen, std::memory_order_release);
    }

    bool
    frozen() const
    {
        return gate_.load(std::memory_order_acquire) & kFrozen;
    }

    /**
     * Observation epoch for lock-free readers (auditor patrol): bumped
     * on every fast-op exit. A reader captures the epoch, observes,
     * re-reads — a change (or fpBusy()) means the observation raced an
     * in-flight update and must be retried, the explicit-epoch
     * contract that replaced "reader holds the arena lock".
     */
    uint64_t
    fpEpoch() const
    {
        return fp_epoch_.load(std::memory_order_acquire);
    }

    bool
    fpBusy() const
    {
        return (gate_.load(std::memory_order_acquire) & ~kFrozen) != 0;
    }

    /**
     * Lock-free popBlock: CAS-claim one available block (word rotor
     * spreads concurrent claimers across bitmap cache lines), marking
     * it lent. Returns capacity() when none. Gate required. CAS losses
     * are added to `cas_retries`.
     */
    unsigned claimFast(uint64_t &cas_retries);

    /**
     * Begin a lock-free free of block `idx`: arbitration so exactly
     * one of two racing frees of the same block proceeds (the
     * persistent bit cannot arbitrate — journal-first ordering clears
     * it only after the WAL append). False = a racing free owns the
     * block; report a double free. Gate required.
     */
    bool
    tryBeginFree(unsigned idx)
    {
        return freeing_.tryClaim(idx);
    }

    /** Finish (or abandon) a lock-free free begun by tryBeginFree. */
    void
    endFree(unsigned idx)
    {
        freeing_.release(idx);
    }

    // -- CoreCache region pinning -----------------------------------

    /** Pinned as a CoreCache region: maybeRelease must skip it (a
     *  lock-free reservation may be dereferencing it right now). */
    unsigned
    regionPins() const
    {
        return region_pins_.load(std::memory_order_relaxed);
    }

    void
    pinRegion()
    {
        region_pins_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    unpinRegion()
    {
        region_pins_.fetch_sub(1, std::memory_order_relaxed);
    }

    // -- persistent allocation state --------------------------------

    /** A lent block was handed to the user: set + persist its bit. */
    void markAllocated(unsigned idx);

    /** Recovery roll-forward: claim a specific free block as
     *  allocated (GC variant completing an in-flight allocation). */
    void claimBlock(unsigned idx);

    /** Free a user block straight back to the slab (not via tcache):
     *  clear + persist its bit, block becomes available. */
    void markFree(unsigned idx);

    /** Free a user block into a tcache: clear + persist its bit, but
     *  keep it lent (the tcache now owns it). */
    void markFreeToTcache(unsigned idx);

    bool
    isAllocated(unsigned idx) const
    {
        unsigned phys = geo_.map.physical(idx);
        uint64_t w = std::atomic_ref<const uint64_t>(
                         pbitmapWords()[phys >> 6])
                         .load(std::memory_order_relaxed);
        return (w >> (phys & 63)) & 1;
    }

    // -- audit / repair hooks (HeapAuditor) -------------------------

    /** Volatile availability bit: set when the block is allocated,
     *  lent to a tcache, or shadowed by a live old-geometry block. */
    bool
    vbitTest(unsigned idx) const
    {
        return vbits_.test(idx);
    }

    /** Atomic popcount of the persistent bitmap, for observers racing
     *  lock-free persistBit writers (auditor patrol). A snapshot —
     *  pair it with the fpEpoch() retry contract. */
    unsigned
    persistentPopcount() const
    {
        unsigned n = 0;
        const uint64_t *words = pbitmapWords();
        for (size_t w = 0; w < kSlabBitmapBytes / 8; ++w) {
            n += unsigned(std::popcount(
                std::atomic_ref<const uint64_t>(words[w]).load(
                    std::memory_order_relaxed)));
        }
        return n;
    }

    /**
     * Repair: rewrite the persistent bitmap from the volatile one.
     * Only sound when no block is lent (a lent block's persistent bit
     * is deliberately clear while its vbit is set) and the slab is not
     * morphing (old-geometry liveness lives in the index table, not
     * the bitmap). Returns false without writing in those states.
     */
    bool rebuildPersistentBitmap();

    /**
     * Repair: rewrite the header's first line (magic, geometry, flag,
     * crc) from the volatile mirror. Refused while morphing — the
     * staged old/new geometry words are then load-bearing and have no
     * volatile copy that is known-good. Returns false if refused.
     */
    bool repairHeader();

    // -- morphing (paper §5.2) --------------------------------------

    bool
    morphing() const
    {
        return cnt_slab_.load(std::memory_order_acquire) > 0;
    }

    /** Fraction of blocks allocated; the Ratio_occupy of §5.2. */
    double
    occupancy() const
    {
        return capacity() ? double(liveBlocks()) / capacity() : 1.0;
    }

    /** Eligible to be transformed to another size class now? */
    bool morphEligible(double threshold) const;

    /** Transform to `new_cls` (three persistent steps + flag).
     *  Freezes the slab for the duration; returns false without
     *  morphing if a racing fast-path reservation broke eligibility
     *  between the caller's morphEligible probe and the freeze. */
    bool morphTo(unsigned new_cls, unsigned stripes);

    /**
     * Classify a device offset inside this slab: returns true and sets
     * `old_idx` if it is a live old-geometry block (block_before),
     * false if it belongs to the current geometry.
     */
    bool isOldBlock(uint64_t off, unsigned &old_idx) const;

    /** Release a block_before; may complete the morph (cnt_slab → 0,
     *  returns true so the arena can re-enlist the slab). */
    bool freeOldBlock(unsigned old_idx);

    unsigned
    cntSlab() const
    {
        return cnt_slab_.load(std::memory_order_relaxed);
    }

    unsigned cntBlock(unsigned idx) const { return cnt_block_[idx]; }

    // -- intrusive links owned by the arena -------------------------

    LruLink lru_link;   //!< morph candidate LRU
    LruLink free_link;  //!< freelist_slab membership
    bool in_freelist = false;
    Arena *arena = nullptr;

    /** Pending-enlist hook: lock-free frees that create availability
     *  push the slab onto the arena's Treiber stack; the next locked
     *  refill drains it. Owned by Arena. */
    std::atomic<VSlab *> pending_next{nullptr};
    std::atomic<bool> pending{false};

  private:
    static constexpr uint32_t kFrozen = 0x80000000u;

    PmDevice *dev_;
    uint64_t slab_off_;
    SlabHeader *hdr_;
    SlabGeometry geo_;
    bool gc_mode_ = false; //!< GC variant: write but do not flush bits

    SlabBitfield<kMaxSlabBlocks> vbits_;
    /** In-flight-free arbitration bits (tryBeginFree). */
    SlabBitfield<kMaxSlabBlocks> freeing_;

    std::atomic<unsigned> spread_rotor_{0}; //!< popBlockSpread cursor
    std::atomic<unsigned> claim_rotor_{0};  //!< claimFast word cursor
    std::atomic<unsigned> avail_{0}; //!< blocks available for handout
    std::atomic<unsigned> live_{0};  //!< allocated (current geometry)
    std::atomic<unsigned> lent_{0};  //!< blocks sitting in tcaches

    /** Fast-op gate: bit 31 = frozen, low bits = in-flight count. */
    std::atomic<uint32_t> gate_{0};
    std::atomic<uint64_t> fp_epoch_{0};
    std::atomic<unsigned> region_pins_{0};

    // Morph state. cnt_slab_ is atomic because morphing() gates the
    // lock-free free path; the rest is only touched in exclusive
    // contexts (recovery, or under freeze).
    std::atomic<unsigned> cnt_slab_{0};
    SlabGeometry old_geo_;
    std::vector<uint16_t> cnt_block_;

    uint64_t *
    pbitmapWords() const
    {
        return reinterpret_cast<uint64_t *>(hdr_->bitmap);
    }

    void persistBit(unsigned idx, bool set);
    void persistHeaderLine(const void *addr, size_t len);
    void updateHeaderCrc() { hdr_->crc = slabHeaderCrc(*hdr_); }
    void setFlag(uint16_t flag);
    void rebuildMorphState();
    void finishMorph();
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_SLAB_H
