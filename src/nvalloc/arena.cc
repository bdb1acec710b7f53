#include "nvalloc/arena.h"

#include "common/logging.h"
#include "pm/vclock.h"

namespace nvalloc {

namespace {

/** Morph candidate scan is bounded so a long LRU of ineligible slabs
 *  cannot stall an allocation. */
constexpr unsigned kMorphScanLimit = 64;

/** Modeled CPU cost of a tcache refill round. */
constexpr uint64_t kRefillCpuNs = 120;

/** Bump a Stats counter; the arena lock serializes its writers. */
void
bump(std::atomic<uint64_t> &a)
{
    a.store(a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

} // namespace

Arena::Arena(unsigned id, PmDevice *dev, const NvAllocConfig *cfg,
             LargeAllocator *large, RadixTree *slab_radix,
             const std::atomic<unsigned> *total_threads)
    : id_(id), dev_(dev), cfg_(cfg), large_(large),
      slab_radix_(slab_radix),
      gc_mode_(cfg->consistency == Consistency::Gc),
      stripes_(cfg->interleaved_bitmap ? cfg->bit_stripes : 1),
      total_threads_(total_threads)
{
}

unsigned
Arena::dynamicStripes(unsigned threads)
{
    // High concurrency already interleaves across threads; fewer
    // stripes per slab keep the XPBuffer working set bounded
    // (Fig. 16a: the optimum drifts from 6 toward 5 as threads
    // grow). Never below 5: the reflush window is 4 distinct lines.
    return threads <= 8 ? 6 : 5;
}

unsigned
Arena::slabStripes() const
{
    if (!cfg_->interleaved_bitmap)
        return 1;
    if (cfg_->dynamic_stripes && total_threads_) {
        return dynamicStripes(
            total_threads_->load(std::memory_order_relaxed));
    }
    return stripes_;
}

Arena::~Arena()
{
    for (const auto &[off, slab] : slabs_)
        delete slab;
    for (VSlab *slab : graveyard_)
        delete slab;
}

void
Arena::enlist(VSlab *slab)
{
    if (!slab->in_freelist && slab->available() > 0) {
        freelist_[slab->sizeClass()].pushBack(slab);
        slab->in_freelist = true;
    }
}

void
Arena::delist(VSlab *slab)
{
    if (slab->in_freelist) {
        freelist_[slab->sizeClass()].remove(slab);
        slab->in_freelist = false;
    }
}

VSlab *
Arena::newSlab(unsigned cls)
{
    uint64_t off = large_->allocate(kSlabSize, true);
    if (off == 0)
        return nullptr;
    auto *slab = new VSlab(dev_, off, cls, slabStripes(), gc_mode_);
    slab->arena = this;
    slab_radix_->setRange(off, kSlabSize, slab);
    slabs_.emplace(off, slab);
    morph_lru_.pushBack(slab);
    enlist(slab);
    bump(stats_.slabs_created);
    return slab;
}

VSlab *
Arena::morphOne(unsigned cls)
{
    // Scan the LRU from least to most recently used (paper §5.2).
    unsigned scanned = 0;
    for (VSlab *slab = morph_lru_.front();
         slab && scanned < kMorphScanLimit;
         slab = morph_lru_.next(slab), ++scanned) {
        if (slab->sizeClass() == cls)
            continue;
        if (!slab->morphEligible(cfg_->morph_threshold))
            continue;

        // The slab_in leaves the LRU (it cannot morph again) and its
        // old class's freelist.
        morph_lru_.remove(slab);
        delist(slab);
        if (!slab->morphTo(cls, slabStripes())) {
            // A lock-free reservation broke eligibility between the
            // probe and the freeze; put the slab back and give up this
            // round.
            morph_lru_.pushBack(slab);
            enlist(slab);
            return nullptr;
        }
        enlist(slab);
        bump(stats_.morphs);
        if (tel_)
            tel_->event(TraceOp::Morph, slab->slabOffset(), uint8_t(cls));
        VClock::advance(kRefillCpuNs, TimeKind::Other);
        return slab;
    }
    return nullptr;
}

unsigned
Arena::refill(TCache &tcache, unsigned cls)
{
    VLockGuard g(lock);
    bump(stats_.refills);
    VClock::advance(kRefillCpuNs, TimeKind::Other);

    // Availability created by lock-free frees lives on the pending
    // stack until a locked refill folds it back into the freelists.
    drainPending();

    unsigned added = 0;
    while (!tcache.full(cls)) {
        // Prefer the fullest slab among the first few candidates:
        // packing allocations into occupied slabs keeps the sparse
        // ones eligible for morphing (and lowers fragmentation).
        VSlab *slab = freelist_[cls].front();
        if (slab) {
            VSlab *peer = slab;
            for (unsigned scan = 0; peer && scan < 8; ++scan) {
                if (peer->occupancy() > slab->occupancy())
                    slab = peer;
                peer = freelist_[cls].next(peer);
            }
        }
        if (!slab && cfg_->slab_morphing)
            slab = morphOne(cls);
        if (!slab)
            slab = newSlab(cls);
        if (!slab)
            break; // heap exhausted

        bool spread = tcache.subCount() > 1;
        unsigned got = 0;
        while (!tcache.full(cls)) {
            unsigned idx =
                spread ? slab->popBlockSpread() : slab->popBlock();
            if (idx == slab->capacity())
                break;
            bool ok = tcache.push(
                cls, CachedBlock{slab->blockOffset(idx), slab, idx});
            NV_ASSERT(ok);
            ++got;
        }
        added += got;
        // got == 0 with available() > 0 means racing lock-free claims
        // emptied the slab under us; delist it anyway or this loop
        // would spin on the same candidate.
        if (slab->available() == 0 || got == 0)
            delist(slab);
        if (slab->lru_link.linked())
            morph_lru_.touch(slab);
        // Refresh a region slot with the slab we just worked: the next
        // dry tcache on this core can then reserve lock-free.
        if (slab->available() > 0)
            core_cache_.install(cls, slab);
    }
    if (tel_)
        tel_->event(TraceOp::Refill, added, uint8_t(cls));
    return added;
}

void
Arena::freeDirect(VSlab *slab, unsigned idx)
{
    slab->markFree(idx);
    enlist(slab);
    if (slab->lru_link.linked())
        morph_lru_.touch(slab);
    maybeRelease(slab);
}

void
Arena::freeOld(VSlab *slab, unsigned old_idx)
{
    bool finished = slab->freeOldBlock(old_idx);
    enlist(slab);
    if (finished) {
        // slab_after is a regular slab again: back into the LRU.
        NV_ASSERT(!slab->lru_link.linked());
        morph_lru_.pushBack(slab);
        maybeRelease(slab);
    }
}

void
Arena::returnLent(VSlab *slab, unsigned idx)
{
    // Through the fast-op gate, like a free: the pending stack tells
    // the next locked refill. Only a freeze in flight (a lent block
    // pins its slab against morph and release, so that is a repair)
    // sends the return to the lock.
    if (slab->enterFast()) {
        slab->unlendBlock(idx);
        slab->exitFast();
        pendingPush(slab);
        return;
    }
    VLockGuard g(lock);
    slab->unlendBlock(idx);
    enlist(slab);
    maybeRelease(slab);
}

void
Arena::maybeRelease(VSlab *slab)
{
    if (slab->liveBlocks() != 0 || slab->lentBlocks() != 0 ||
        slab->morphing() || slab->regionPins() != 0) {
        return;
    }

    // Keep one fully-free slab per class cached; release the rest to
    // the large allocator so decay can return the memory.
    unsigned cls = slab->sizeClass();
    unsigned free_peers = 0;
    for (VSlab *peer = freelist_[cls].front(); peer;
         peer = freelist_[cls].next(peer)) {
        if (peer != slab && peer->liveBlocks() == 0 &&
            peer->lentBlocks() == 0 && !peer->morphing()) {
            ++free_peers;
        }
    }
    if (free_peers < 1)
        return;

    // Freeze before the final verdict: a lock-free reservation may
    // have claimed a block since the probe above. The slab stays
    // frozen forever after release — a stale radix pointer's
    // enterFast then fails and the free re-resolves under the lock,
    // which is the ABA defense for recycled extents.
    slab->freeze();
    if (slab->liveBlocks() != 0 || slab->lentBlocks() != 0 ||
        slab->morphing() || slab->regionPins() != 0) {
        slab->unfreeze();
        return;
    }

    delist(slab);
    if (slab->lru_link.linked())
        morph_lru_.remove(slab);
    slabs_.erase(slab->slabOffset());
    slab_radix_->setRange(slab->slabOffset(), kSlabSize, nullptr);
    large_->free(slab->slabOffset());
    graveyard_.push_back(slab);
    bump(stats_.slabs_released);
}

void
Arena::pendingPush(VSlab *slab)
{
    // One stack node per slab: the flag keeps a slab from being pushed
    // twice, so the intrusive next pointer can't be clobbered while
    // the slab is already enqueued.
    if (slab->pending.exchange(true, std::memory_order_acq_rel))
        return;
    VSlab *head = pending_head_.load(std::memory_order_relaxed);
    do {
        slab->pending_next.store(head, std::memory_order_relaxed);
    } while (!pending_head_.compare_exchange_weak(
        head, slab, std::memory_order_release,
        std::memory_order_relaxed));
}

void
Arena::drainPending()
{
    VSlab *s =
        pending_head_.exchange(nullptr, std::memory_order_acquire);
    while (s) {
        VSlab *next = s->pending_next.load(std::memory_order_relaxed);
        s->pending_next.store(nullptr, std::memory_order_relaxed);
        // Clear before processing: a fast free racing this drain can
        // re-enqueue the slab for the next one.
        s->pending.store(false, std::memory_order_release);
        // A slab released on an earlier drain iteration (or pushed
        // again after release) is in the graveyard; never re-enlist
        // those. Release unmaps a slab from the radix and a graveyard
        // descriptor is never reused, so the radix names the live
        // ones in O(1).
        if (slab_radix_->get(s->slabOffset()) == s) {
            enlist(s);
            if (s->lru_link.linked())
                morph_lru_.touch(s);
            maybeRelease(s);
        }
        s = next;
    }
}

void
Arena::dropRegions()
{
    VLockGuard g(lock);
    core_cache_.dropRegions();
    drainPending();
    // With the pins gone, fully-free region slabs become releasable;
    // sweep them now so reclaimMemory actually returns the memory.
    std::vector<VSlab *> candidates;
    for (const auto &[off, s] : slabs_) {
        if (s->liveBlocks() == 0 && s->lentBlocks() == 0 &&
            !s->morphing())
            candidates.push_back(s);
    }
    for (VSlab *s : candidates)
        maybeRelease(s);
}

void
Arena::registerSlab(VSlab *slab)
{
    VLockGuard g(lock);
    slab->arena = this;
    slab_radix_->setRange(slab->slabOffset(), kSlabSize, slab);
    slabs_.emplace(slab->slabOffset(), slab);
    if (!slab->morphing())
        morph_lru_.pushBack(slab);
    enlist(slab);
}

void
Arena::persistAllBitmaps()
{
    VLockGuard g(lock);
    for (const auto &[off, slab] : slabs_) {
        dev_->persist(slab->header()->bitmap, kSlabBitmapBytes,
                      TimeKind::FlushMeta);
    }
    dev_->fence();
}

} // namespace nvalloc
