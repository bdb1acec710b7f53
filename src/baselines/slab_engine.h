/**
 * @file
 * Functional small-allocation engine for the baseline models.
 *
 * All five baselines allocate small blocks from size-segregated 64 KB
 * slabs (paper §2.2, §3.2 — static segregation, never morphed). The
 * engine implements the shared mechanics — slabs, per-class freelists,
 * block reuse, a radix index for frees — and a Policy selects the
 * metadata discipline that distinguishes the originals:
 *
 *  - bitmap mode (PMDK, nvm_malloc, PAllocator): sequentially-mapped
 *    persistent slab bitmaps, flushed per operation → the cache-line
 *    reflushes of §3.1;
 *  - embedded-list mode (Makalu, Ralloc): free blocks chained through
 *    their own first word; allocation chases a pointer in PM (charged
 *    as a random read), no per-op flushes;
 *  - journaling: zero or more WAL-style flushes per op, either
 *    appending (entry lines shared by 4 entries → frequent reflushes)
 *    or rewriting a lane head line (reflush distance 0, PMDK);
 *  - locking: one global heap lock, per-class locks, or per-thread
 *    heaps (PAllocator — fast locally, contended on cross-thread
 *    frees).
 */

#ifndef NVALLOC_BASELINES_SLAB_ENGINE_H
#define NVALLOC_BASELINES_SLAB_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/allocator_iface.h"
#include "baselines/extent_heap.h"
#include "common/bitmap_ops.h"
#include "common/lru_list.h"
#include "common/radix_tree.h"
#include "common/size_classes.h"

namespace nvalloc {

class SlabEngine
{
  public:
    enum class Locking { Global, PerClass, PerThread };
    enum class FreeList { Bitmap, Embedded };

    struct Heap;

    struct Policy
    {
        Locking locking = Locking::Global;
        FreeList freelist = FreeList::Bitmap;
        unsigned shards = 1; //!< arena count for Global/PerClass modes
        bool bitmap_flush = true;      //!< flush bitmap line per op
        bool link_read_charge = true;  //!< PM read when popping links
        bool flush_link = false;       //!< flush link writes on free
        bool log_head_flush = false;   //!< rewrite+flush lane head
        unsigned log_entry_flushes = 0; //!< appended journal flushes
        unsigned periodic_meta_flush = 0; //!< extra header flush every N
        uint64_t cpu_ns = 60;          //!< per-op CPU cost
    };

    struct Tls : AllocThread
    {
        unsigned id = 0;
        uint64_t log_off = 0;   //!< 16 KB journal extent
        unsigned log_pos = 0;
        uint64_t op_count = 0;
        Heap *heap = nullptr; //!< per-thread heap if enabled
    };

    SlabEngine(PmDevice *dev, ExtentHeap *extents, Policy policy);
    ~SlabEngine();

    Tls *attach();
    void detach(Tls *tls);

    /** Allocate a small block (size <= kSmallMax). Returns offset. */
    uint64_t alloc(Tls *tls, size_t size);

    /** Free if `off` is a small block of this engine; returns false
     *  if the offset is unknown (caller should try the large path). */
    bool free(Tls *tls, uint64_t off);

    /** Journal with an explicit policy (large-path journaling uses a
     *  different flush count than the small path). */
    void journalWith(Tls *tls, const Policy &policy, uint64_t off,
                     uint64_t size, bool is_free);

    uint64_t liveBlocks() const { return live_blocks_.load(); }
    uint64_t slabCount() const { return slab_count_.load(); }

  private:
    struct Slab
    {
        uint64_t off = 0;
        uint16_t cls = 0;
        uint16_t capacity = 0;
        uint16_t live = 0;
        uint16_t next_unused = 0; //!< bump cursor (embedded mode)
        Heap *owner = nullptr;
        LruLink list_link;
        uint64_t vbitmap[bitmapWords(kMaxSlabBlocks)] = {};
    };

    struct ClassHeap
    {
        LruList<Slab, offsetof(Slab, list_link)> partial;
        uint64_t embedded_head = 0; //!< offset of first free block
        VLock lock;                 //!< used in PerClass mode
    };

  public:
    struct Heap
    {
        ClassHeap classes[kNumSizeClasses];
        VLock lock; //!< used in Global / PerThread modes
    };

  private:
    static constexpr size_t kBaseSlabHeader = 1024;

    PmDevice *dev_;
    ExtentHeap *extents_;
    Policy policy_;

    std::vector<std::unique_ptr<Heap>> shard_heaps_;
    std::vector<std::unique_ptr<Heap>> thread_heaps_;
    /** Detached heaps with the virtual time of their detach; a heap
     *  is only handed to a thread whose clock is past that time, so a
     *  late-starting worker can never inherit lock history from its
     *  own virtual future (a single-core scheduling artifact). */
    std::vector<std::pair<Heap *, uint64_t>> free_heaps_;
    std::vector<Slab *> all_slabs_;
    RadixTree radix_;
    std::mutex admin_mutex_;
    unsigned next_tls_id_ = 0;

    std::atomic<uint64_t> live_blocks_{0};
    std::atomic<uint64_t> slab_count_{0};

    Heap &heapFor(Tls *tls, Slab *slab);
    VLock &lockFor(Heap &heap, unsigned cls);
    void journal(Tls *tls, uint64_t off, uint64_t size, bool is_free);
    Slab *newSlab(Heap &heap, unsigned cls);
    uint64_t allocFromBitmap(Heap &heap, unsigned cls);
    uint64_t allocFromEmbedded(Heap &heap, unsigned cls);
    void freeToBitmap(Heap &heap, Slab *slab, uint64_t off);
    void freeToEmbedded(Heap &heap, Slab *slab, uint64_t off);
    void persistBitmapBit(Slab *slab, unsigned idx, bool set);
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_SLAB_ENGINE_H
