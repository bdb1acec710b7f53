/**
 * @file
 * Log-structured bookkeeping for large allocations (paper §5.3, Fig. 8).
 *
 * Instead of updating extent headers in place (small random writes all
 * over the heap, §3.3), every extent state change appends an 8-byte
 * entry to a persistent log: sequential writes, fixed entry size, no
 * data copying. The log region is divided into chunks of 128 entries;
 * a volatile vchunk per chunk carries a validity bitmap and the DRAM
 * back-pointers needed to relocate entries during GC. Active chunks
 * form a persistent singly-linked list published by a log header with
 * two head pointers and an `alt` bit, so slow GC can build a fresh
 * list and switch over with one atomic bit flip.
 *
 * Fast GC frees chunks whose bitmap is empty (no PM reads). Slow GC
 * copies live entries into a new list, dropping tombstones, when the
 * log file grows past a usage threshold.
 *
 * Entries are placed inside a chunk through the interleaved mapping so
 * that consecutive appends do not re-flush the same line (§5.3:
 * "similar to the method in Section 5.1").
 */

#ifndef NVALLOC_NVALLOC_BOOKKEEPING_LOG_H
#define NVALLOC_NVALLOC_BOOKKEEPING_LOG_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rbtree.h"
#include "nvalloc/interleave.h"
#include "nvalloc/layout.h"
#include "pm/pm_device.h"
#include "telemetry/telemetry.h"

namespace nvalloc {

/** Stable handle to a live log entry (chunk activation id + slot). */
struct LogEntryRef
{
    uint32_t chunk_id = 0;
    uint32_t slot = 0;

    bool valid() const { return chunk_id != 0; }
};

class BookkeepingLog
{
  public:
    /** Called when slow GC moves a live entry: lets the owner (a VEH)
     *  update its stored LogEntryRef. */
    using RelocateFn = std::function<void(void *owner, LogEntryRef ref)>;

    /** What replay() refused to trust; recovery copies these into
     *  RecoveryInfo (stats.log.replay.*). */
    struct ReplayRejects
    {
        uint64_t entries = 0; //!< bad fold csum / poisoned entries
        uint64_t chunks = 0;  //!< bad header crc / poisoned chunks
    };

    BookkeepingLog() = default;
    ~BookkeepingLog();

    /**
     * Bind to the log region. `create` formats a fresh header;
     * otherwise the persistent chunk list is adopted (recovery path —
     * call replay() afterwards to enumerate live entries). Returns
     * false if an existing header fails validation (bad magic, crc,
     * poison, or structurally impossible fields): the header is the
     * log's single root, so the caller must treat the heap as
     * unopenable rather than guess at chunk locations.
     */
    bool attach(PmDevice *dev, uint64_t region_off, size_t region_bytes,
                bool interleaved, double gc_threshold, bool create,
                bool verify = true);

    /** Append a normal or slab entry; `owner` is the volatile object
     *  (VEH) to notify on relocation. Returns an invalid ref if the
     *  log region is exhausted even after GC. */
    LogEntryRef append(LogType type, uint64_t ext_off, uint64_t size,
                       void *owner);

    /** Mark `target` dead: appends a tombstone entry and clears the
     *  target's validity bit in its vchunk. */
    void tombstone(LogEntryRef target);

    void setRelocateFn(RelocateFn fn) { relocate_ = std::move(fn); }

    /** Force a slow GC (also used by recovery to drop tombstones).
     *  Returns false — without touching any state — when the region
     *  cannot hold a full copy of the surviving entries. */
    bool slowGc();

    /**
     * Recovery: walk every live entry of the published chunk list in
     * append order, invoking fn(type, ext_off, size, ref). Rebuilds
     * all volatile state (vchunks, free list) as a side effect, and
     * returns what it rejected on the way.
     */
    ReplayRejects replay(const std::function<void(LogType, uint64_t,
                                                  uint64_t, LogEntryRef)>
                             &fn);

    /** Let the owner of a replayed entry be registered for GC. */
    void setOwner(LogEntryRef ref, void *owner);

    /** Lock-free occupancy snapshots: the maintenance service polls
     *  these from mutator threads (pollLogPressure), hence atomic. */
    size_t
    activeChunks() const
    {
        return active_count_.load(std::memory_order_relaxed);
    }
    size_t
    liveEntries() const
    {
        return live_entries_.load(std::memory_order_relaxed);
    }

    /** Region capacity in chunks (fixed after attach). */
    size_t maxChunks() const { return max_chunks_; }

    /** Run one fast-GC pass (free chunks whose bitmap is empty; no PM
     *  reads, never relocates an entry). Must be called under the
     *  owner's lock, like append/tombstone — the maintenance service
     *  reaches it through LargeAllocator::maintainLog. */
    void fastGc();

    /** Count append/tombstone/GC events (stats.log.*) into the heap's
     *  telemetry; unset, they go uncounted. */
    void setTelemetry(Telemetry *tel) { tel_ = tel; }

  private:
    struct VChunk
    {
        uint64_t chunk_off = 0;
        uint32_t id = 0;
        uint64_t bitmap[2] = {0, 0};
        unsigned live = 0;
        unsigned next_slot = 0; //!< logical append cursor
        void *owners[kLogEntriesPerChunk] = {};
        RbNode rb;      //!< active vchunks, keyed by id
        VChunk *next_free = nullptr;
    };

    using VChunkTree = RbTree<VChunk, offsetof(VChunk, rb)>;

    PmDevice *dev_ = nullptr;
    uint64_t region_off_ = 0;
    size_t region_bytes_ = 0;
    bool verify_ = true; //!< checksum-verify chunks/entries on replay
    double gc_threshold_ = 0.5;
    InterleaveMap map_;
    LogHeader *header_ = nullptr;

    VChunkTree active_;       //!< by activation id
    VChunk *tail_ = nullptr;  //!< current append chunk
    VChunk *free_list_ = nullptr;
    std::atomic<size_t> active_count_{0};  //!< see activeChunks()
    std::atomic<size_t> live_entries_{0};  //!< see liveEntries()
    uint32_t next_id_ = 1;
    size_t carved_chunks_ = 0;
    size_t max_chunks_ = 0;

    RelocateFn relocate_;
    Telemetry *tel_ = nullptr;

    LogChunk *chunkAt(const VChunk &vc) const
    {
        return static_cast<LogChunk *>(dev_->at(vc.chunk_off));
    }

    uint64_t chunkOffset(size_t index) const;
    void persistHeader();
    void persistChunkHeader(LogChunk *pc);
    bool ensureTail();
    VChunk *activateChunk(VChunk *list_tail, uint32_t list);
    VChunk *takeFreeChunk();
    void releaseChunk(VChunk *vc, VChunk *prev);
    void writeEntry(VChunk &vc, unsigned slot, uint64_t packed);
    void persistLine(const void *addr, size_t len);
    void freeAllVChunks();
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_BOOKKEEPING_LOG_H
