#include "nvalloc/slab.h"

#include <cstddef>
#include <cstring>

#include "common/logging.h"

namespace nvalloc {

namespace {

/** (cls, stripes) name a reachable geometry (stripes not clamped). */
bool
targetValid(unsigned cls, unsigned stripes)
{
    return cls < kNumSizeClasses && stripes != 0 &&
           SlabGeometry::compute(cls, stripes).map.stripes == stripes;
}

/** (cls, capacity, stripes) form a self-consistent slab geometry. */
bool
geometryValid(unsigned cls, unsigned capacity, unsigned stripes)
{
    return targetValid(cls, stripes) &&
           capacity == SlabGeometry::compute(cls, stripes).capacity;
}

} // namespace

VSlab::VSlab(PmDevice *dev, uint64_t slab_off, unsigned cls,
             unsigned stripes, bool gc_mode)
    : dev_(dev), slab_off_(slab_off),
      hdr_(static_cast<SlabHeader *>(dev->at(slab_off))),
      geo_(SlabGeometry::compute(cls, stripes)), gc_mode_(gc_mode)
{
    NV_ASSERT(geo_.map.physicalSlots() <= kSlabBitmapBytes * 8);

    // The extent is NOT guaranteed to arrive zeroed: only fresh
    // mappings and recycled holes are, while an extent reused from the
    // reclaimed list keeps whatever its previous owner wrote there
    // (user data, a guard's redzone fill, ...). A stale bitmap or
    // index table would fabricate allocated blocks, so the header
    // establishes its own zero state first: the zeroed body (bitmap
    // and index table) is fenced before line 0 (magic, geometry, crc)
    // is written. Sharing one epoch, a crash could land line 0 and
    // drop body lines, leaving a trusted header over stale bits.
    static_assert(offsetof(SlabHeader, bitmap) == kCacheLine);
    std::memset(reinterpret_cast<char *>(hdr_) + kCacheLine, 0,
                kSlabHeaderSize - kCacheLine);
    persistHeaderLine(hdr_->bitmap, kSlabHeaderSize - kCacheLine);
    dev_->fence();

    std::memset(hdr_, 0, kCacheLine);
    hdr_->magic = kSlabMagic;
    hdr_->size_class = uint16_t(cls);
    hdr_->flag = 0;
    hdr_->data_offset = kSlabHeaderSize;
    hdr_->capacity = uint16_t(geo_.capacity);
    hdr_->stripes = uint16_t(geo_.map.stripes);
    hdr_->old_size_class = 0;
    hdr_->old_data_offset_k = kSlabHeaderSize / kCacheLine;
    hdr_->index_count = 0;
    hdr_->old_capacity = 0;
    hdr_->old_stripes = 0;
    hdr_->new_size_class = 0;
    hdr_->new_stripes = 0;
    updateHeaderCrc();
    persistHeaderLine(hdr_, kCacheLine);
    dev_->fence();

    avail_.store(geo_.capacity, std::memory_order_relaxed);
}

VSlab::VSlab(PmDevice *dev, uint64_t slab_off, bool gc_mode)
    : dev_(dev), slab_off_(slab_off),
      hdr_(static_cast<SlabHeader *>(dev->at(slab_off))), gc_mode_(gc_mode)
{
    NV_ASSERT(hdr_->magic == kSlabMagic);

    // Crash during morphing: flag records the completed steps. Step 1
    // only stages copies (old_*/new_* fields); the original geometry
    // and bitmap are intact, so undo by discarding the staging. At
    // flag 2 the crash may have landed inside step 3's epoch, which
    // rewrites the geometry words and zeroes the bitmap — any subset
    // of those flushes can be durable — so roll back from the staged
    // old geometry (fenced at step 1) and the index table (fenced at
    // step 2), which are authoritative. After step 3 the new geometry
    // is committed but its words and the bitmap zeroing may still be
    // torn, so roll forward from the staged target.
    if (hdr_->flag == 1) {
        hdr_->index_count = 0;
        setFlag(0);
    } else if (hdr_->flag == 2) {
        if (geometryValid(hdr_->old_size_class, hdr_->old_capacity,
                          hdr_->old_stripes)) {
            SlabGeometry og = SlabGeometry::compute(hdr_->old_size_class,
                                                    hdr_->old_stripes);
            hdr_->size_class = uint16_t(og.size_class);
            hdr_->capacity = uint16_t(og.capacity);
            hdr_->stripes = uint16_t(og.map.stripes);
            std::memset(hdr_->bitmap, 0, kSlabBitmapBytes);
            for (unsigned i = 0; i < hdr_->index_count; ++i) {
                uint16_t entry = hdr_->index_table[i];
                if (entry & kIndexAllocated)
                    bitmapSet(pbitmapWords(),
                              og.map.physical(entry & kIndexBlockMask));
            }
            persistHeaderLine(hdr_->bitmap, kSlabBitmapBytes);
            // Seal the rebuilt bitmap in its own epoch: if it shared
            // the setFlag fence and recovery itself crashed there, the
            // flag clear could land while the bitmap lines were
            // dropped, leaving a trusted header over a wrong bitmap.
            dev_->fence();
        }
        hdr_->index_count = 0;
        setFlag(0);
    } else if (hdr_->flag == 3) {
        if (targetValid(hdr_->new_size_class, hdr_->new_stripes)) {
            SlabGeometry ng = SlabGeometry::compute(hdr_->new_size_class,
                                                    hdr_->new_stripes);
            hdr_->size_class = uint16_t(ng.size_class);
            hdr_->capacity = uint16_t(ng.capacity);
            hdr_->stripes = uint16_t(ng.map.stripes);
            // No current-geometry block can exist at flag 3; clear any
            // stale pre-morph bits whose zeroing never landed.
            std::memset(hdr_->bitmap, 0, kSlabBitmapBytes);
            persistHeaderLine(hdr_->bitmap, kSlabBitmapBytes);
            // Same epoch-separation as the flag-2 repair above.
            dev_->fence();
        }
        setFlag(0);
    }

    geo_ = SlabGeometry::compute(hdr_->size_class, hdr_->stripes);

    unsigned live = 0;
    for (unsigned idx = 0; idx < geo_.capacity; ++idx) {
        if (bitmapTest(pbitmapWords(), geo_.map.physical(idx))) {
            vbits_.set(idx);
            ++live;
        }
    }
    live_.store(live, std::memory_order_relaxed);
    avail_.store(geo_.capacity - live, std::memory_order_relaxed);

    if (hdr_->index_count > 0)
        rebuildMorphState();
}

unsigned
VSlab::blockIndexOf(uint64_t off) const
{
    if (off < slab_off_ + kSlabHeaderSize)
        return geo_.capacity;
    uint64_t rel = off - slab_off_ - kSlabHeaderSize;
    if (rel % geo_.block_size != 0)
        return geo_.capacity;
    uint64_t idx = rel / geo_.block_size;
    return idx < geo_.capacity ? unsigned(idx) : geo_.capacity;
}

unsigned
VSlab::popBlock()
{
    // First-fit claim (start at word 0): the lock-free claim on a
    // shared bitfield, retry count discarded — callers hold the arena
    // lock but race claimFast reservations.
    uint64_t retries = 0;
    unsigned idx = vbits_.claim(geo_.capacity, 0, retries);
    if (idx >= geo_.capacity)
        return geo_.capacity;
    lent_.fetch_add(1, std::memory_order_relaxed);
    avail_.fetch_sub(1, std::memory_order_relaxed);
    return idx;
}

unsigned
VSlab::popBlockSpread()
{
    // One bitmap cache line covers 512 physical bit positions; with
    // stripes that is 512/stripes logical blocks per line-visit.
    unsigned line_blocks = (kCacheLine * 8) / geo_.map.stripes;
    if (line_blocks == 0)
        line_blocks = 1;
    unsigned nlines = (geo_.capacity + line_blocks - 1) / line_blocks;
    for (unsigned probe = 0; probe < nlines; ++probe) {
        unsigned line =
            spread_rotor_.fetch_add(1, std::memory_order_relaxed) %
            nlines;
        unsigned begin = line * line_blocks;
        unsigned end = begin + line_blocks;
        if (end > geo_.capacity)
            end = geo_.capacity;
        unsigned idx = vbits_.claimRange(begin, end);
        if (idx < geo_.capacity) {
            lent_.fetch_add(1, std::memory_order_relaxed);
            avail_.fetch_sub(1, std::memory_order_relaxed);
            return idx;
        }
    }
    return geo_.capacity;
}

unsigned
VSlab::claimFast(uint64_t &cas_retries)
{
    unsigned nwords = unsigned(bitmapWords(geo_.capacity));
    unsigned start =
        claim_rotor_.fetch_add(1, std::memory_order_relaxed) % nwords;
    unsigned idx = vbits_.claim(geo_.capacity, start, cas_retries);
    if (idx >= geo_.capacity)
        return geo_.capacity;
    // Lent before un-available: the (lent + live) sum an unfrozen
    // maybeRelease probe reads must never transiently miss this block.
    lent_.fetch_add(1, std::memory_order_relaxed);
    avail_.fetch_sub(1, std::memory_order_relaxed);
    return idx;
}

void
VSlab::unlendBlock(unsigned idx)
{
    NV_ASSERT(lentBlocks() > 0 && vbits_.test(idx));
    lent_.fetch_sub(1, std::memory_order_relaxed);
    avail_.fetch_add(1, std::memory_order_relaxed);
    // Released last: the moment the vbit clears, a concurrent claim
    // may hand the block out again.
    vbits_.release(idx);
}

void
VSlab::markAllocated(unsigned idx)
{
    NV_ASSERT(lentBlocks() > 0);
    // live up before lent down, so live + lent never transiently
    // drops below the block count the slab really pins; persist in
    // between so a lent_ == 0 observer (morph eligibility) sees the
    // durable bit.
    live_.fetch_add(1, std::memory_order_relaxed);
    persistBit(idx, true);
    lent_.fetch_sub(1, std::memory_order_release);
}

void
VSlab::claimBlock(unsigned idx)
{
    NV_ASSERT(!vbits_.test(idx));
    vbits_.set(idx);
    avail_.fetch_sub(1, std::memory_order_relaxed);
    live_.fetch_add(1, std::memory_order_relaxed);
    persistBit(idx, true);
}

void
VSlab::markFree(unsigned idx)
{
    NV_ASSERT(liveBlocks() > 0);
    // Durability first: once the vbit releases, the block is claimable
    // and its persistent bit may be set again — the clear must already
    // be on media (journal-first ordering has appended the WAL entry
    // before this call). Counters in between keep live + lent honest
    // for release probes.
    persistBit(idx, false);
    live_.fetch_sub(1, std::memory_order_relaxed);
    avail_.fetch_add(1, std::memory_order_relaxed);
    vbits_.release(idx);
}

void
VSlab::markFreeToTcache(unsigned idx)
{
    NV_ASSERT(liveBlocks() > 0);
    // The vbit stays set: the block moves to the freeing thread's own
    // tcache, lent.
    persistBit(idx, false);
    lent_.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_sub(1, std::memory_order_release);
}

bool
VSlab::rebuildPersistentBitmap()
{
    // Whole-structure rewrite: freeze out in-flight fast ops first
    // (the caller holds the arena lock, making us the sole freezer).
    freeze();
    if (lentBlocks() != 0 || morphing()) {
        unfreeze();
        return false;
    }
    std::memset(hdr_->bitmap, 0, kSlabBitmapBytes);
    for (unsigned idx = 0; idx < geo_.capacity; ++idx) {
        if (vbits_.test(idx))
            bitmapSet(pbitmapWords(), geo_.map.physical(idx));
    }
    persistHeaderLine(hdr_->bitmap, kSlabBitmapBytes);
    dev_->fence();
    unfreeze();
    return true;
}

bool
VSlab::repairHeader()
{
    freeze();
    if (morphing()) {
        unfreeze();
        return false;
    }
    // index_count is already 0 here: cnt_slab_ == 0 implies any morph
    // completed, and finishMorph cleared the table.
    hdr_->magic = kSlabMagic;
    hdr_->size_class = uint16_t(geo_.size_class);
    hdr_->flag = 0;
    hdr_->data_offset = kSlabHeaderSize;
    hdr_->capacity = uint16_t(geo_.capacity);
    hdr_->stripes = uint16_t(geo_.map.stripes);
    hdr_->old_size_class = 0;
    hdr_->old_data_offset_k = kSlabHeaderSize / kCacheLine;
    hdr_->index_count = 0;
    hdr_->old_capacity = 0;
    hdr_->old_stripes = 0;
    hdr_->new_size_class = 0;
    hdr_->new_stripes = 0;
    updateHeaderCrc();
    persistHeaderLine(hdr_, kCacheLine);
    dev_->fence();
    unfreeze();
    return true;
}

void
VSlab::persistBit(unsigned idx, bool set)
{
    // Atomic RMW on the shared bitmap word: concurrent fast-path
    // persists of neighboring blocks hit the same 64-bit word.
    unsigned phys = geo_.map.physical(idx);
    std::atomic_ref<uint64_t> word(pbitmapWords()[phys >> 6]);
    uint64_t mask = uint64_t{1} << (phys & 63);
    if (set)
        word.fetch_or(mask, std::memory_order_release);
    else
        word.fetch_and(~mask, std::memory_order_release);

    // NVAlloc-GC never flushes per-block metadata (paper §4.1): the
    // post-crash GC rebuilds it, trading recovery time for allocation
    // speed.
    if (!gc_mode_) {
        dev_->flushLine(hdr_->bitmap + phys / 8, TimeKind::FlushMeta);
        dev_->fence();
    }
}

void
VSlab::persistHeaderLine(const void *addr, size_t len)
{
    dev_->persist(addr, len, TimeKind::FlushMeta);
}

void
VSlab::setFlag(uint16_t flag)
{
    // One flush commits the whole first line. The crc only actually
    // changes when the geometry quintuple changed (morph step 3);
    // recomputing it unconditionally keeps every transition uniform.
    hdr_->flag = flag;
    updateHeaderCrc();
    persistHeaderLine(hdr_, kCacheLine);
    dev_->fence();
}

bool
VSlab::headerLooksValid(PmDevice *dev, uint64_t slab_off, bool verify_crc)
{
    const auto *h = static_cast<const SlabHeader *>(dev->at(slab_off));
    if (dev->isPoisoned(h, kCacheLine))
        return false;
    if (h->magic != kSlabMagic)
        return false;
    if (h->flag > 3 || h->index_count > kIndexTableCap ||
        h->data_offset != kSlabHeaderSize)
        return false;

    // Three acceptable interpretations of the geometry words: as
    // stored, or — for a header torn inside morph step 3's epoch —
    // the staged pre-morph geometry (recovery rolls back from it at
    // flag 2) or the staged morph target (rolled forward at flag 3).
    bool stored_ok =
        geometryValid(h->size_class, h->capacity, h->stripes);
    bool old_ok = geometryValid(h->old_size_class, h->old_capacity,
                                h->old_stripes);
    bool new_ok = targetValid(h->new_size_class, h->new_stripes);

    if (verify_crc) {
        // The staged interpretations only apply while a morph is in
        // flight (flag 2/3): a completed morph leaves its stale
        // old_*/new_* staging behind, and accepting those at flag 0
        // would let a forged current geometry ride a stale staging
        // crc.
        bool ok = stored_ok && h->crc == slabHeaderCrc(*h);
        if (!ok && h->flag >= 2 && old_ok)
            ok = h->crc == slabGeometryCrc(h->old_size_class,
                                           h->old_capacity,
                                           h->old_stripes);
        if (!ok && h->flag >= 2 && new_ok) {
            SlabGeometry g = SlabGeometry::compute(h->new_size_class,
                                                   h->new_stripes);
            ok = h->crc == slabGeometryCrc(h->new_size_class,
                                           uint16_t(g.capacity),
                                           h->new_stripes);
        }
        if (!ok)
            return false;
    } else {
        // Structural sanity is the only line of defense when crc
        // verification is configured off: the stored geometry must be
        // self-consistent, or a mid-morph flag must point recovery at
        // a valid staged geometry to repair from.
        if (!stored_ok && !(h->flag == 2 && old_ok) &&
            !(h->flag == 3 && new_ok))
            return false;
    }

    if (h->index_count > 0 &&
        (h->old_size_class >= kNumSizeClasses ||
         h->old_capacity >
             (kSlabSize - kSlabHeaderSize) /
                 classToSize(h->old_size_class)))
        return false;
    return true;
}

bool
VSlab::morphEligible(double threshold) const
{
    return hdr_->flag == 0 && !morphing() && lentBlocks() == 0 &&
           liveBlocks() > 0 && liveBlocks() <= kIndexTableCap &&
           occupancy() <= threshold;
}

bool
VSlab::morphTo(unsigned new_cls, unsigned stripes)
{
    NV_ASSERT(new_cls != geo_.size_class);

    // Freeze before re-checking eligibility: between the caller's
    // morphEligible probe and here, a lock-free reservation may have
    // lent blocks out. Once frozen the counters are stable, so a
    // failed re-check is a clean refusal, not a torn morph.
    freeze();
    if (!morphEligible(1.0)) {
        unfreeze();
        return false;
    }

    // Step 1: stage the old geometry (paper Fig. 5) plus the morph
    // target, so recovery can repair a torn step 3 in either
    // direction without trusting the (possibly torn) live fields.
    SlabGeometry ng = SlabGeometry::compute(new_cls, stripes);
    hdr_->old_size_class = uint16_t(geo_.size_class);
    hdr_->old_data_offset_k = kSlabHeaderSize / kCacheLine;
    hdr_->old_capacity = uint16_t(geo_.capacity);
    hdr_->old_stripes = uint16_t(geo_.map.stripes);
    hdr_->new_size_class = uint16_t(ng.size_class);
    hdr_->new_stripes = uint16_t(ng.map.stripes);
    setFlag(1);

    // Step 2: record every live old block in the index table.
    unsigned n = 0;
    for (unsigned idx = 0; idx < geo_.capacity; ++idx) {
        if (bitmapTest(pbitmapWords(), geo_.map.physical(idx)))
            hdr_->index_table[n++] = uint16_t(idx) | kIndexAllocated;
    }
    NV_ASSERT(n == liveBlocks() && n <= kIndexTableCap);
    hdr_->index_count = uint16_t(n);
    persistHeaderLine(hdr_, kCacheLine); // index_count
    persistHeaderLine(hdr_->index_table, n * sizeof(uint16_t));
    // The flag-2 rollback treats the index table as authoritative, so
    // it must be durable in an epoch strictly before the flag advance:
    // were they fenced together, a crash at that fence could commit
    // flag 2 while dropping the table lines. That includes the count,
    // which shares the first line with the flag — a word-granular tear
    // of the flag-2 flush could otherwise land the flag alone.
    dev_->fence();
    setFlag(2);

    // Step 3: install the new geometry; the old allocation info now
    // lives only in the index table.
    old_geo_ = geo_;
    geo_ = ng;
    hdr_->size_class = uint16_t(new_cls);
    hdr_->capacity = uint16_t(geo_.capacity);
    hdr_->stripes = uint16_t(geo_.map.stripes);
    std::memset(hdr_->bitmap, 0, kSlabBitmapBytes);
    persistHeaderLine(hdr_->bitmap, kSlabBitmapBytes);
    setFlag(3);

    // Commit and rebuild the volatile morph state.
    setFlag(0);
    rebuildMorphState();
    unfreeze();
    return true;
}

void
VSlab::rebuildMorphState()
{
    // Exclusive context: recovery (single-threaded) or under freeze.
    old_geo_ = SlabGeometry::compute(hdr_->old_size_class, hdr_->stripes);
    cnt_block_.assign(geo_.capacity, 0);
    vbits_.reset();

    // Current-geometry allocations (none right after a morph; present
    // when rebuilding a slab_in during recovery).
    unsigned live = 0;
    for (unsigned idx = 0; idx < geo_.capacity; ++idx) {
        if (bitmapTest(pbitmapWords(), geo_.map.physical(idx))) {
            vbits_.set(idx);
            ++live;
        }
    }
    live_.store(live, std::memory_order_relaxed);
    lent_.store(0, std::memory_order_relaxed);

    unsigned cnt_slab = 0;
    for (unsigned i = 0; i < hdr_->index_count; ++i) {
        uint16_t entry = hdr_->index_table[i];
        if (!(entry & kIndexAllocated))
            continue;
        ++cnt_slab;
        unsigned old_idx = entry & kIndexBlockMask;
        uint64_t start = uint64_t(old_idx) * old_geo_.block_size;
        uint64_t end = start + old_geo_.block_size;
        unsigned first = unsigned(start / geo_.block_size);
        unsigned last = unsigned((end - 1) / geo_.block_size);
        for (unsigned nb = first; nb <= last && nb < geo_.capacity; ++nb) {
            if (cnt_block_[nb]++ == 0)
                vbits_.set(nb);
        }
    }
    avail_.store(geo_.capacity - vbits_.popcount(geo_.capacity),
                 std::memory_order_relaxed);
    // Publish last: morphing() gates the lock-free free path, so the
    // overlap bookkeeping above must be visible before it flips.
    cnt_slab_.store(cnt_slab, std::memory_order_release);

    if (cnt_slab == 0 && hdr_->index_count > 0)
        finishMorph();
}

bool
VSlab::isOldBlock(uint64_t off, unsigned &old_idx) const
{
    if (!morphing())
        return false;
    uint64_t rel = off - slab_off_ - kSlabHeaderSize;

    // A handed-out current-geometry block always has its bit set, and
    // new blocks are never handed out while old blocks overlap them,
    // so an allocated current bit is authoritative.
    if (rel % geo_.block_size == 0) {
        unsigned idx = unsigned(rel / geo_.block_size);
        if (idx < geo_.capacity && isAllocated(idx))
            return false;
    }
    if (rel % old_geo_.block_size != 0)
        return false;
    unsigned candidate = unsigned(rel / old_geo_.block_size);
    for (unsigned i = 0; i < hdr_->index_count; ++i) {
        if (hdr_->index_table[i] ==
            (uint16_t(candidate) | kIndexAllocated)) {
            old_idx = candidate;
            return true;
        }
    }
    return false;
}

bool
VSlab::freeOldBlock(unsigned old_idx)
{
    NV_ASSERT(morphing());
    unsigned entry_pos = hdr_->index_count;
    for (unsigned i = 0; i < hdr_->index_count; ++i) {
        if (hdr_->index_table[i] == (uint16_t(old_idx) | kIndexAllocated)) {
            entry_pos = i;
            break;
        }
    }
    NV_ASSERT(entry_pos < hdr_->index_count);

    // Paper §5.2 block release: update the entry's state and flush it;
    // blocks_before bypass the tcache.
    hdr_->index_table[entry_pos] = uint16_t(old_idx);
    dev_->flushLine(&hdr_->index_table[entry_pos], TimeKind::FlushMeta);
    dev_->fence();

    uint64_t start = uint64_t(old_idx) * old_geo_.block_size;
    uint64_t end = start + old_geo_.block_size;
    unsigned first = unsigned(start / geo_.block_size);
    unsigned last = unsigned((end - 1) / geo_.block_size);
    for (unsigned nb = first; nb <= last && nb < geo_.capacity; ++nb) {
        NV_ASSERT(cnt_block_[nb] > 0);
        if (--cnt_block_[nb] == 0) {
            // Availability before the vbit release, mirroring markFree:
            // the instant the bit clears a concurrent claim may take
            // the block.
            avail_.fetch_add(1, std::memory_order_relaxed);
            vbits_.release(nb);
        }
    }

    if (cnt_slab_.fetch_sub(1, std::memory_order_release) == 1) {
        finishMorph();
        return true;
    }
    return false;
}

void
VSlab::finishMorph()
{
    // The slab becomes a regular slab_after; the staging area is dead.
    hdr_->index_count = 0;
    updateHeaderCrc();
    persistHeaderLine(hdr_, kCacheLine);
    dev_->fence();
    cnt_slab_.store(0, std::memory_order_release);
    cnt_block_.clear();
    cnt_block_.shrink_to_fit();
}

} // namespace nvalloc
