/**
 * @file
 * Arena: per-core slab manager (paper §4.2).
 *
 * Each CPU core owns an arena; each thread is attached to the arena
 * with the fewest threads. The arena keeps one freelist of
 * partially-full slabs per size class, the LRU list of morph
 * candidates (§5.2), the slabs it owns in device-offset order, and a
 * CoreCache of
 * pinned region slabs feeding the lock-free reservation path
 * (DESIGN.md §14).
 *
 * Slow-path slab management (refill, morph, release, repair) runs
 * under the arena's VLock. The hot alloc/free paths instead reserve
 * and free against slabs directly through their atomic bitfields and
 * hand availability notices back via a lock-free pending stack; their
 * contention is modeled through a per-arena VServer (bookFastOp), so
 * the virtual-time scaling curves stay honest without a mutex.
 */

#ifndef NVALLOC_NVALLOC_ARENA_H
#define NVALLOC_NVALLOC_ARENA_H

#include <atomic>
#include <map>
#include <vector>

#include "common/lru_list.h"
#include "common/radix_tree.h"
#include "nvalloc/config.h"
#include "nvalloc/core_cache.h"
#include "nvalloc/large_alloc.h"
#include "nvalloc/slab.h"
#include "nvalloc/tcache.h"
#include "nvalloc/vlock.h"
#include "pm/vclock.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

class Arena
{
  public:
    /** Slab lifecycle, counted here and nowhere else: nvbench and
     *  the stats.arena.<i>.* leaves read it per arena, and the heap
     *  totals (stats.slab.*) sum it at read time. Written under
     *  `lock` with a load and a store, read lock-free by the ctl
     *  tree, hence relaxed atomics. */
    struct Stats
    {
        std::atomic<uint64_t> slabs_created{0};
        std::atomic<uint64_t> slabs_released{0};
        std::atomic<uint64_t> morphs{0};
        std::atomic<uint64_t> refills{0};
    };

    Arena(unsigned id, PmDevice *dev, const NvAllocConfig *cfg,
          LargeAllocator *large, RadixTree *slab_radix,
          const std::atomic<unsigned> *total_threads = nullptr);

    /** Stripe count for a new slab under `threads` concurrency. */
    static unsigned dynamicStripes(unsigned threads);
    ~Arena();

    unsigned id() const { return id_; }

    /** Threads currently attached (for least-loaded assignment). */
    std::atomic<unsigned> thread_count{0};

    /** Lock guarding every slab this arena owns. Public because the
     *  facade's hot paths lock it around per-slab operations. */
    VLock lock;

    /**
     * Refill a tcache's class list until full: partially-full slabs
     * first, then slab morphing, then a fresh slab from the large
     * allocator (paper §4.2). Returns the number of blocks added.
     */
    unsigned refill(TCache &tcache, unsigned cls);

    /** Free a block straight back to its slab (tcache bypass). Caller
     *  must hold `lock`. */
    void freeDirect(VSlab *slab, unsigned idx);

    /** Free a block_before of a morphing slab. Caller must hold
     *  `lock`. */
    void freeOld(VSlab *slab, unsigned old_idx);

    /** Return a lent, unallocated block (tcache drain, quarantine
     *  eviction). Synchronizes itself; the caller must hold no arena
     *  lock and be inside no fast-op gate. */
    void returnLent(VSlab *slab, unsigned idx);

    // -- lock-free fast path (DESIGN.md §14) ------------------------

    /**
     * Lock-free tcache refill from this arena's region slabs; returns
     * the number of blocks reserved (0 = regions dry, caller escalates
     * to a sibling steal or the locked refill).
     */
    unsigned
    fastReserve(TCache &tcache, unsigned cls)
    {
        // Blocks claimed per reservation round: the tcache is topped
        // up at most this much per miss before the caller escalates.
        constexpr unsigned kFastReserveBatch = 24;
        return core_cache_.reserve(cls, tcache, kFastReserveBatch, tel_);
    }

    /**
     * Lock-free: a fast free gave `slab` availability the freelists
     * don't know about yet; queue it for the next locked refill.
     */
    void pendingPush(VSlab *slab);

    /**
     * Book one fast operation's serialization window against this
     * arena's virtual-time capacity server. This is the lock-free
     * analogue of the VLock's hold accounting — and follows the same
     * convention: the window is booked into the server, and only the
     * queueing delay the booking implies advances the caller's clock.
     * Uncontended fast ops therefore cost nothing here (their CPU is
     * already modeled by the op's own advance), while threads
     * hammering one arena accumulate virtual wait, which is what
     * keeps the thread-scaling curves meaningful without the mutex.
     */
    void
    bookFastOp(uint64_t cpu_ns)
    {
        uint64_t now = VClock::now();
        uint64_t start = fp_server_.reserve(now, cpu_ns);
        if (start > now)
            VClock::advanceTo(start, TimeKind::LockWait);
    }

    /** Unpin and empty every CoreCache region slot (reclaimMemory),
     *  then release any now-releasable fully-free slabs. */
    void dropRegions();

    /** Adopt a slab rebuilt by recovery. */
    void registerSlab(VSlab *slab);

    /** Persist every slab bitmap (GC-variant normal shutdown). */
    void persistAllBitmaps();

    /** Iterate all live slabs in device-offset order (space-breakdown
     *  reporting, Fig 15b; audits, GC sweeps and victim pickers). */
    template <typename Fn>
    void
    forEachSlab(Fn &&fn)
    {
        VLockGuard g(lock);
        for (const auto &[off, slab] : slabs_)
            fn(slab);
    }

    const Stats &stats() const { return stats_; }

    /** Record fast-path counters and trace events into the heap's
     *  telemetry. */
    void setTelemetry(Telemetry *tel) { tel_ = tel; }

  private:
    using SlabList = LruList<VSlab, offsetof(VSlab, free_link)>;
    using MorphLru = LruList<VSlab, offsetof(VSlab, lru_link)>;

    unsigned id_;
    PmDevice *dev_;
    const NvAllocConfig *cfg_;
    LargeAllocator *large_;
    RadixTree *slab_radix_;
    bool gc_mode_;
    unsigned stripes_;
    const std::atomic<unsigned> *total_threads_;

    unsigned slabStripes() const;

    SlabList freelist_[kNumSizeClasses];
    MorphLru morph_lru_;
    //! Live slabs keyed by device offset, so every walk visits them in
    //! the same order whatever their DRAM addresses are.
    std::map<uint64_t, VSlab *> slabs_;

    CoreCache core_cache_;
    /** Virtual-time capacity server for lock-free fast ops. */
    VServer fp_server_;
    /** Treiber stack of slabs with un-enlisted availability. */
    std::atomic<VSlab *> pending_head_{nullptr};

    // Released VSlabs are kept until destruction so lock-free radix
    // readers can never observe a dangling pointer (epoch-free
    // deferred reclamation).
    std::vector<VSlab *> graveyard_;

    Stats stats_;
    Telemetry *tel_ = nullptr;

    VSlab *newSlab(unsigned cls);
    VSlab *morphOne(unsigned cls);
    void enlist(VSlab *slab);
    void delist(VSlab *slab);
    void maybeRelease(VSlab *slab);
    void drainPending();
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_ARENA_H
