/**
 * @file
 * Large allocator: extents from 16 KB to 2 MB, plus direct mappings
 * above 2 MB (paper §2.2, §4.3, Fig. 7).
 *
 * Every extent is described by a virtual extent header (VEH) in DRAM.
 * VEHs live on one of three lists:
 *  - activated: allocated extents (and slabs);
 *  - reclaimed: free extents with committed physical memory;
 *  - retained: free extents whose physical memory was released but
 *    whose addresses remain reserved.
 * Free extents are additionally indexed by size (intrusive red-black
 * tree) for best-fit, and by address (radix tree) for O(1) lookup and
 * neighbour coalescing.
 *
 * A decay mechanism bounds free memory: each epoch the reclaimed list
 * may hold at most peak * smootherstep-decay bytes; overflow extents
 * are demoted to retained (decommit) and, a window later, returned to
 * the OS entirely when they span a whole region (paper §2.2, 50 ms
 * epochs, jemalloc parameters).
 *
 * Regions: the heap grows one 4 MB region (or one direct mapping)
 * at a time. openRegion maps a region, records it in the persistent
 * region table (layout.h, regionTable()) and returns a VEH over its
 * data area; closeRegion undoes all of it for a VEH that spans a
 * whole region. They are the only code that maps, records, unmaps or
 * forgets a region; recovery adopts the table's regions as they are.
 *
 * Persistence of extent state is pluggable:
 *  - log-structured bookkeeping (paper §5.3): allocations append to
 *    the BookkeepingLog, frees tombstone; free space is re-derived
 *    from gaps at recovery;
 *  - in-place descriptors (Base / §3.3): every state change rewrites
 *    the extent's 64 B descriptor slot in its region's header area —
 *    the small random writes Fig. 2 visualizes.
 */

#ifndef NVALLOC_NVALLOC_LARGE_ALLOC_H
#define NVALLOC_NVALLOC_LARGE_ALLOC_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lru_list.h"
#include "common/radix_tree.h"
#include "common/rbtree.h"
#include "common/smootherstep.h"
#include "nvalloc/bookkeeping_log.h"
#include "nvalloc/config.h"
#include "nvalloc/layout.h"
#include "nvalloc/status.h"
#include "nvalloc/vlock.h"
#include "pm/pm_device.h"

namespace nvalloc {

/** Virtual extent header (volatile). */
struct Veh
{
    uint64_t off = 0;
    uint64_t size = 0;

    enum class State : uint8_t { Activated, Reclaimed, Retained };
    State state = State::Reclaimed;
    bool is_slab = false;
    bool is_direct = false; //!< own >2 MB region, unmapped on free

    LogEntryRef log_ref;   //!< live while activated (log mode)
    uint64_t desc_off = 0; //!< descriptor slot (in-place mode)
    uint64_t freed_at = 0; //!< virtual time of the last free
    /** Bumped on every activation: lets deferred checks over reclaimed
     *  memory (the hardening guard watch) tell "still the same free
     *  life" apart from "reused and freed again since". */
    uint64_t reuse_epoch = 0;

    RbNode size_node;  //!< reclaimed/retained best-fit index
    LruLink list_link; //!< membership in the state's list
};

class LargeAllocator
{
  public:
    /** The decay window for reclaimed and retained extents, virtual
     *  ns: the paper's 50 ms epochs (jemalloc's decay parameters). */
    static constexpr uint64_t kDecayWindowNs = 50'000'000;

    LargeAllocator() = default;
    ~LargeAllocator();

    /** @param log bookkeeping log, or nullptr for in-place mode. The
     *  region table is the device's (regionTable()). */
    void init(PmDevice *dev, const NvAllocConfig &cfg, BookkeepingLog *log);

    /**
     * Pre-durability hook for allocate(): invoked with the chosen
     * extent's offset immediately before the extent's own durability
     * point (the bookkeeping-log append, or the descriptor write in
     * in-place mode), so the caller can journal the allocation first.
     * Ordering the journal entry before the extent's record means a
     * crash between the two leaves a WAL intent recovery can undo —
     * never an activated extent no journal knows about.
     */
    using PreLogHook = std::function<void(uint64_t off)>;

    /**
     * Allocate an extent of exactly `size` bytes (rounded up to the
     * 16 KB extent grain; sizes above 2 MB get a direct region).
     * Returns the device offset, or 0 if the device is exhausted.
     * When `pre_log` is set it runs once per attempt that reached an
     * extent; on a 0 return the caller must unwind whatever the hook
     * journalled (the extent itself was returned to the free lists).
     */
    uint64_t allocate(uint64_t size, bool is_slab,
                      const PreLogHook &pre_log = {});

    /** Free the extent starting at `off` (must be a start address). */
    void free(uint64_t off);

    /** VEH owning `off`, or nullptr. */
    Veh *
    findVeh(uint64_t off) const
    {
        return static_cast<Veh *>(rtree_.get(off));
    }

    /** Run decay demotions now (also runs opportunistically). */
    void decayTick();

    // ---- maintenance hooks (maintenance.h) ------------------------
    // Each takes the allocator lock itself, so the maintenance
    // service can run them from any thread in bounded units; its
    // forced slice is also the exhaustion slow path's reclaim.

    /**
     * One log-GC unit under the lock: a fast-GC pass always, plus a
     * slow GC when `want_slow`. Returns true if anything was freed or
     * compacted; *ran_slow reports whether the slow GC actually ran
     * (it declines when the region cannot hold a survivor copy), and
     * *gc_ns the virtual time the GC passes put on the calling
     * (maintenance) thread's clock — its share of stats.log.gc_ns.
     */
    bool maintainLog(bool want_slow, bool *ran_slow,
                     uint64_t *gc_ns = nullptr);

    /** One decay tick under the lock. */
    void decayPass();

    /**
     * Scrub up to `max_lines` media-poisoned lines that lie outside
     * every live region and outside every `keep` range (offset, len):
     * zero the line, persist, clear the poison flag. Runs under the
     * lock so no region can be mapped over a line mid-scrub. Returns
     * the number of lines scrubbed. Poison *inside* live regions is
     * left for the auditor's full classification.
     */
    unsigned scrubUnmappedPoison(
        unsigned max_lines,
        const std::vector<std::pair<uint64_t, uint64_t>> &keep);

    /**
     * Hardening probe (hardening.h): if the extent at `off` is still
     * a Reclaimed extent of exactly `size` bytes, verify that its
     * first `check_bytes` bytes all hold `expect` and return 0 (fill
     * intact) or 1 (fill dirtied — a use-after-free wrote into it).
     * Returns -1 when the extent was already reused, coalesced or
     * decommitted (nothing can be concluded). Runs under the allocator
     * lock so the extent cannot be handed back out mid-check.
     */
    int verifyReclaimedFill(uint64_t off, uint64_t size, uint64_t epoch,
                            uint64_t check_bytes, uint8_t expect);

    /** The extent's reuse epoch if `off` heads a reclaimed extent,
     *  ~0ULL otherwise. Pairs with verifyReclaimedFill: capture at
     *  free time, pass back at check time. */
    uint64_t reclaimedEpoch(uint64_t off);

    /** Why the last allocate() returned 0 (Ok if none failed yet). */
    NvStatus
    lastFailure() const
    {
        return last_failure_.load(std::memory_order_relaxed);
    }

    // ---- recovery hooks -------------------------------------------

    /** Recreate an activated VEH from a replayed log entry. */
    Veh *adoptActivated(uint64_t off, uint64_t size, bool is_slab,
                        LogEntryRef ref);

    /** Adopt regions from the persistent region table and turn every
     *  gap between activated extents into a reclaimed extent. False,
     *  with nothing adopted, if a table word breaks regionEntryValid:
     *  the table cannot be trusted and the open must fail. */
    bool rebuildFreeSpace();

    /** In-place mode recovery: adopt the region table as above, then
     *  scan every region's descriptor slots. Calls on_slab(off, size)
     *  for each allocated slab so the caller can rebuild vslabs. */
    bool recoverFromDescriptors(
        const std::function<void(uint64_t, uint64_t)> &on_slab);

    /** Iterate all activated VEHs (recovery GC sweep, stats). */
    template <typename Fn>
    void
    forEachActivated(Fn &&fn)
    {
        for (Veh *veh = activated_list_.front(); veh;
             veh = activated_list_.next(veh)) {
            fn(veh);
        }
    }

    /** Iterate every VEH on all three state lists (audit). */
    template <typename Fn>
    void
    forEachVeh(Fn &&fn)
    {
        for (Veh *v = activated_list_.front(); v;
             v = activated_list_.next(v))
            fn(v);
        for (Veh *v = reclaimed_list_.front(); v;
             v = reclaimed_list_.next(v))
            fn(v);
        for (Veh *v = retained_list_.front(); v;
             v = retained_list_.next(v))
            fn(v);
    }

    /** Iterate live regions as (start offset, total size) (audit). */
    template <typename Fn>
    void
    forEachRegion(Fn &&fn) const
    {
        for (const auto &[off, size] : regions_)
            fn(off, size);
    }

    /** The allocator lock. The patrol scrubber (auditor.h) takes it
     *  for bounded log-chain walks so GC cannot rewrite the chain
     *  mid-check; everything else locks through the member functions. */
    VLock &lock() { return lock_; }

    /** Count extent-lifecycle events (stats.large.*) into the heap's
     *  telemetry; unset, they go uncounted. */
    void setTelemetry(Telemetry *tel) { tel_ = tel; }

    // Gauges (stats.large.*); callers outside the allocator hold lock().
    uint64_t activatedBytes() const { return activated_bytes_; }
    uint64_t reclaimedBytes() const { return reclaimed_bytes_; }
    uint64_t retainedBytes() const { return retained_bytes_; }
    uint64_t regionSlotsUsed() const { return regions_.size(); }
    uint64_t regionSlotsTotal() const { return kRegionTableSlots; }
    /** Size of the largest free (reclaimed or retained) extent. */
    uint64_t largestFreeExtent() const;

  private:
    using SizeTree = RbTree<Veh, offsetof(Veh, size_node)>;
    using VehList = LruList<Veh, offsetof(Veh, list_link)>;

    PmDevice *dev_ = nullptr;
    NvAllocConfig cfg_;
    BookkeepingLog *log_ = nullptr;

    RadixTree rtree_;
    SizeTree reclaimed_tree_;
    SizeTree retained_tree_;
    VehList activated_list_;
    VehList reclaimed_list_; //!< LRU by freed_at
    VehList retained_list_;

    uint64_t activated_bytes_ = 0;
    uint64_t reclaimed_bytes_ = 0;
    uint64_t retained_bytes_ = 0;
    uint64_t reclaimed_peak_ = 0;
    uint64_t decay_epoch_start_ = 0;

    /** Live regions: start offset -> total size (incl. header area). */
    std::map<uint64_t, uint64_t> regions_;

    // In-place mode only: free descriptor slots per region.
    std::unordered_map<uint64_t, std::vector<unsigned>> desc_free_;

    VLock lock_;
    std::atomic<uint64_t> global_vnow_{0};

    Telemetry *tel_ = nullptr;
    std::atomic<NvStatus> last_failure_{NvStatus::Ok};

    void
    count(StatCounter c)
    {
        if (tel_)
            tel_->add(c);
    }
    void
    setFailure(NvStatus why)
    {
        last_failure_.store(why, std::memory_order_relaxed);
    }

    /** Map a `total`-byte region, record it in the region table, count
     *  it and, in in-place mode, free its descriptor slots. Returns a
     *  VEH over the data area, indexed by address and on no list, or
     *  nullptr with the failure recorded (nothing left mapped). */
    Veh *openRegion(uint64_t total);
    /** Undo openRegion for `veh`, which spans its region's whole data
     *  area and is on no list: unindex it, remove the table word, drop
     *  the descriptor slots, unmap, count, delete the VEH. */
    void closeRegion(Veh *veh);
    /** `veh` covers its region's whole data area. */
    bool spansRegion(const Veh *veh) const;
    /** Per-tenant capacity quota (pool containment, DESIGN.md §12):
     *  every byte a tenant holds is an activated extent here, slabs
     *  included, so this one check bounds the whole heap. True, with
     *  the failure recorded, when `bytes` more would cross the quota;
     *  a tenant can always use its full quota. */
    bool overQuota(uint64_t bytes);

    Veh *bestFit(SizeTree &tree, uint64_t size);
    Veh *newRegion();
    uint64_t allocateDirect(uint64_t size, const PreLogHook &pre_log);
    bool activate(Veh *veh, bool is_slab, const PreLogHook &pre_log);
    void retire(Veh *veh);
    Veh *splitFront(Veh *veh, uint64_t size);
    Veh *coalesce(Veh *veh);
    void demote(Veh *veh);
    void evict(Veh *veh);
    void removeFree(Veh *veh);
    void insertFree(Veh *veh, Veh::State state);

    void descriptorWrite(Veh *veh, uint32_t state);
    void descriptorRelease(Veh *veh);
    uint64_t regionOf(uint64_t off) const;
    bool adoptRegionTable();
    bool regionTableAdd(uint64_t region_off, uint64_t size);
    void regionTableRemove(uint64_t region_off);

    void chargeSearch(unsigned steps);
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_LARGE_ALLOC_H
