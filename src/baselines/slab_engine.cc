#include "baselines/slab_engine.h"

#include "common/logging.h"

namespace nvalloc {

SlabEngine::SlabEngine(PmDevice *dev, ExtentHeap *extents, Policy policy)
    : dev_(dev), extents_(extents), policy_(policy)
{
    unsigned shards = policy_.shards < 1 ? 1 : policy_.shards;
    for (unsigned i = 0; i < shards; ++i)
        shard_heaps_.push_back(std::make_unique<Heap>());
}

SlabEngine::~SlabEngine()
{
    for (Slab *slab : all_slabs_)
        delete slab;
}

SlabEngine::Tls *
SlabEngine::attach()
{
    std::lock_guard<std::mutex> g(admin_mutex_);
    auto *tls = new Tls;
    tls->id = next_tls_id_++;
    tls->log_off = extents_->allocExtent(16 * 1024);

    if (policy_.locking == Locking::PerThread) {
        // Detached heaps are recycled (a departing thread's slabs stay
        // usable, as PAllocator's persistent per-thread allocators do)
        // but only by threads whose virtual clock is past the detach.
        uint64_t now = VClock::now();
        for (size_t i = 0; i < free_heaps_.size(); ++i) {
            if (free_heaps_[i].second <= now) {
                tls->heap = free_heaps_[i].first;
                free_heaps_.erase(free_heaps_.begin() + long(i));
                break;
            }
        }
        if (!tls->heap) {
            thread_heaps_.push_back(std::make_unique<Heap>());
            tls->heap = thread_heaps_.back().get();
        }
    }
    return tls;
}

void
SlabEngine::detach(Tls *tls)
{
    std::lock_guard<std::mutex> g(admin_mutex_);
    extents_->freeExtent(tls->log_off);
    if (tls->heap)
        free_heaps_.emplace_back(tls->heap, VClock::now());
    delete tls;
}

SlabEngine::Heap &
SlabEngine::heapFor(Tls *tls, Slab *slab)
{
    // Frees always go to the heap that owns the slab (for a shared
    // arena that is the arena itself; for PAllocator it is the owner
    // thread's allocator — the cross-thread cost the paper measures).
    if (slab)
        return *slab->owner;
    if (policy_.locking == Locking::PerThread)
        return *tls->heap;
    return *shard_heaps_[tls->id % shard_heaps_.size()];
}

VLock &
SlabEngine::lockFor(Heap &heap, unsigned cls)
{
    if (policy_.locking == Locking::PerClass)
        return heap.classes[cls].lock;
    return heap.lock;
}

void
SlabEngine::journal(Tls *tls, uint64_t off, uint64_t size, bool is_free)
{
    journalWith(tls, policy_, off, size, is_free);
}

void
SlabEngine::journalWith(Tls *tls, const Policy &policy, uint64_t off,
                        uint64_t size, bool is_free)
{
    if (policy.log_head_flush) {
        // PMDK-lane style: the lane header line is rewritten on every
        // operation — reflush distance 0.
        auto *head = static_cast<uint64_t *>(dev_->at(tls->log_off));
        head[0] = tls->op_count;
        head[1] = off;
        dev_->persist(head, kCacheLine, TimeKind::FlushWal);
        dev_->fence();
    }
    for (unsigned i = 0; i < policy.log_entry_flushes; ++i) {
        // Appending journal: 16 B entries, four per line, so three of
        // four appends re-flush the line of the previous append.
        unsigned pos = tls->log_pos++ % 960;
        auto *e = static_cast<uint64_t *>(
            dev_->at(tls->log_off + kCacheLine + uint64_t(pos) * 16));
        e[0] = (off << 2) | (is_free ? 2 : 1);
        e[1] = size;
        dev_->persist(e, 16, TimeKind::FlushWal);
        dev_->fence();
    }
}

SlabEngine::Slab *
SlabEngine::newSlab(Heap &heap, unsigned cls)
{
    uint64_t off = extents_->allocExtent(kSlabSize);
    if (off == 0)
        return nullptr;
    auto *slab = new Slab;
    slab->off = off;
    slab->cls = uint16_t(cls);
    slab->capacity =
        uint16_t((kSlabSize - kBaseSlabHeader) / classToSize(cls));
    slab->owner = &heap;
    radix_.setRange(off, kSlabSize, slab);
    {
        std::lock_guard<std::mutex> g(admin_mutex_);
        all_slabs_.push_back(slab);
    }
    heap.classes[cls].partial.pushBack(slab);
    slab_count_.fetch_add(1, std::memory_order_relaxed);

    // Initialize the persistent slab header (class, magic word).
    auto *hdr = static_cast<uint64_t *>(dev_->at(off));
    hdr[0] = 0x42534c4142ULL; // "BSLAB"
    hdr[1] = cls;
    dev_->persist(hdr, kCacheLine, TimeKind::FlushMeta);
    dev_->fence();
    return slab;
}

void
SlabEngine::persistBitmapBit(Slab *slab, unsigned idx, bool set)
{
    // Sequentially mapped persistent bitmap right after the magic
    // line: consecutive allocations hit the same line (§3.1).
    auto *words = reinterpret_cast<uint64_t *>(
        static_cast<char *>(dev_->at(slab->off)) + kCacheLine);
    if (set)
        bitmapSet(words, idx);
    else
        bitmapClear(words, idx);
    if (policy_.bitmap_flush) {
        dev_->flushLine(reinterpret_cast<char *>(words) + idx / 8,
                        TimeKind::FlushMeta);
        dev_->fence();
    }
}

uint64_t
SlabEngine::allocFromBitmap(Heap &heap, unsigned cls)
{
    ClassHeap &ch = heap.classes[cls];
    Slab *slab = ch.partial.front();
    if (!slab) {
        slab = newSlab(heap, cls);
        if (!slab)
            return 0;
    }
    size_t idx = bitmapFindFirstZero(slab->vbitmap, slab->capacity);
    NV_ASSERT(idx < slab->capacity);
    bitmapSet(slab->vbitmap, idx);
    if (++slab->live == slab->capacity)
        ch.partial.remove(slab); // full slabs leave the freelist
    persistBitmapBit(slab, unsigned(idx), true);
    return slab->off + kBaseSlabHeader + idx * classToSize(cls);
}

uint64_t
SlabEngine::allocFromEmbedded(Heap &heap, unsigned cls)
{
    ClassHeap &ch = heap.classes[cls];
    if (ch.embedded_head != 0) {
        uint64_t off = ch.embedded_head;
        // Chasing the link means reading the freed block itself — a
        // random PM read (the locality cost §6.2 attributes to
        // Makalu/Ralloc).
        if (policy_.link_read_charge)
            dev_->chargeRead(false);
        ch.embedded_head = *static_cast<uint64_t *>(dev_->at(off));
        auto *slab = static_cast<Slab *>(radix_.get(off));
        NV_ASSERT(slab != nullptr);
        ++slab->live;
        return off;
    }

    Slab *slab = ch.partial.front();
    if (!slab || slab->next_unused == slab->capacity) {
        slab = newSlab(heap, cls);
        if (!slab)
            return 0;
    }
    unsigned idx = slab->next_unused++;
    ++slab->live;
    if (slab->next_unused == slab->capacity)
        ch.partial.remove(slab);
    return slab->off + kBaseSlabHeader + idx * classToSize(cls);
}

void
SlabEngine::freeToBitmap(Heap &heap, Slab *slab, uint64_t off)
{
    unsigned idx = unsigned((off - slab->off - kBaseSlabHeader) /
                            classToSize(slab->cls));
    NV_ASSERT(bitmapTest(slab->vbitmap, idx));
    bitmapClear(slab->vbitmap, idx);
    if (slab->live-- == slab->capacity)
        heap.classes[slab->cls].partial.pushBack(slab);
    persistBitmapBit(slab, idx, false);
    // Static slab segregation (paper §3.2): the slab stays assigned
    // to its size class even when completely empty — it is reusable
    // by this class only, never returned for reassignment. This is
    // precisely the fragmentation NVAlloc's slab morphing removes.
}

void
SlabEngine::freeToEmbedded(Heap &heap, Slab *slab, uint64_t off)
{
    ClassHeap &ch = heap.classes[slab->cls];
    *static_cast<uint64_t *>(dev_->at(off)) = ch.embedded_head;
    if (policy_.flush_link) {
        dev_->persist(dev_->at(off), 8, TimeKind::FlushMeta);
        dev_->fence();
    }
    ch.embedded_head = off;
    --slab->live;
    // Embedded-list slabs are never reclaimed: their free blocks are
    // woven into the class-wide list (the static-segregation cost the
    // paper measures in Fig. 1(b)).
}

uint64_t
SlabEngine::alloc(Tls *tls, size_t size)
{
    unsigned cls = sizeToClass(size);
    Heap &heap = heapFor(tls, nullptr);

    // Journals (PMDK lanes, nvm_malloc WALs, PAllocator micro-logs)
    // are per-thread structures: written outside the heap lock.
    journal(tls, 0, size, false);

    VLockGuard g(lockFor(heap, cls));
    uint64_t off = policy_.freelist == FreeList::Bitmap
                       ? allocFromBitmap(heap, cls)
                       : allocFromEmbedded(heap, cls);
    if (off == 0)
        return 0;

    ++tls->op_count;
    if (policy_.periodic_meta_flush &&
        tls->op_count % policy_.periodic_meta_flush == 0) {
        auto *slab = static_cast<Slab *>(radix_.get(off));
        dev_->persist(dev_->at(slab->off), kCacheLine,
                      TimeKind::FlushMeta);
        dev_->fence();
    }
    VClock::advance(policy_.cpu_ns, TimeKind::Other);
    live_blocks_.fetch_add(1, std::memory_order_relaxed);
    return off;
}

bool
SlabEngine::free(Tls *tls, uint64_t off)
{
    auto *slab = static_cast<Slab *>(radix_.get(off));
    if (!slab)
        return false;

    Heap &heap = heapFor(tls, slab);
    journal(tls, off, 0, true);

    VLockGuard g(lockFor(heap, slab->cls));
    if (policy_.freelist == FreeList::Bitmap)
        freeToBitmap(heap, slab, off);
    else
        freeToEmbedded(heap, slab, off);

    ++tls->op_count;
    VClock::advance(policy_.cpu_ns, TimeKind::Other);
    live_blocks_.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

} // namespace nvalloc
