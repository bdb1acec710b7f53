/**
 * @file
 * Heap auditor: an fsck for NVAlloc heaps.
 *
 * Walks every persistent metadata structure — superblock, region
 * table, large-extent state, slab headers and bitmaps, the
 * bookkeeping-log chain, the per-thread WAL rings, the quarantine
 * list — and cross-checks each against both its own integrity rules
 * (magic, crc, poison, structural bounds) and the volatile mirrors the
 * allocator is currently operating on. The result is a structured
 * AuditReport with one counter per violation class, so tests can
 * assert "clean after recovery" and operators can see exactly which
 * invariant a corrupted heap breaks.
 *
 * Invariants checked:
 *  - superblock magic/version/crc valid, not poisoned, config fields
 *    within bounds;
 *  - every region-table entry decodes to an in-device region that the
 *    large allocator also knows (and vice versa), with no overlap;
 *  - the extents of each region tile it exactly: first extent at the
 *    region header boundary, no gaps, no overlaps, last one flush with
 *    the region end;
 *  - every vslab's persistent header verifies, its bitmap popcount
 *    equals the live counter (the whole bitmap is scanned, so a stray
 *    bit outside the active geometry is caught too), its volatile
 *    bitmap agrees with the availability counter, its morph index
 *    agrees with cnt_slab, and an activated slab extent backs it;
 *  - an activated slab extent without a vslab must be quarantined;
 *  - the bookkeeping-log chain walks cleanly (structural offsets,
 *    chunk crcs, entry checksums), its live entries and the activated
 *    extents reference each other one-to-one;
 *  - occupied WAL entries checksum-verify;
 *  - the quarantine list is structurally sound and no quarantined slab
 *    is simultaneously live;
 *  - poisoned media lines are classified free vs live (informational:
 *    media loss on user data is the application's to handle, and a
 *    poisoned free line is scrubbable — neither makes the *metadata*
 *    unsound on its own).
 *
 * repair() fixes what is derivable without guessing: rebuilds
 * persistent bitmaps from the volatile truth (only when no block is
 * lent), rewrites slab header lines from the volatile geometry mirror,
 * zeroes torn WAL entries, quarantines orphaned slab extents, and
 * scrubs poisoned-but-free lines (zero + persist + clear poison).
 * Counter mismatches and log orphans are reported but never "fixed" by
 * mutating state whose ground truth is unknown.
 *
 * audit() and repair() must run on a quiescent heap: no concurrent
 * mutators. patrolStep() is the exception: it runs the same per-item
 * checks in bounded batches against a live heap.
 */

#ifndef NVALLOC_NVALLOC_AUDITOR_H
#define NVALLOC_NVALLOC_AUDITOR_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace nvalloc {

class NvAlloc;
class VSlab;
struct LogChunk;

/** Structured audit result: one counter per violation class. */
struct AuditReport
{
    // Violations (non-zero => heap not clean).
    uint64_t superblock_bad = 0;   //!< crc/magic/poison/bounds
    uint64_t region_table_bad = 0; //!< table vs volatile regions
    uint64_t extent_overlap = 0;
    uint64_t extent_gap = 0;
    uint64_t slab_header_bad = 0;
    uint64_t slab_veh_mismatch = 0; //!< slab without extent or v.v.
    uint64_t bitmap_mismatch = 0;   //!< popcount != live counter
    uint64_t counter_mismatch = 0;  //!< volatile counters disagree
    uint64_t log_chain_bad = 0;     //!< bad chunk offset/crc/cycle
    uint64_t log_entry_bad = 0;     //!< nonzero entry, bad checksum
    uint64_t log_entry_orphan = 0;  //!< live entry, no extent
    uint64_t veh_unlogged = 0;      //!< activated extent, no entry
    uint64_t wal_entry_bad = 0;     //!< occupied entry, bad crc
    uint64_t tx_orphan_entries = 0; //!< tx entries of a tx that is
                                    //!< neither open nor resolved
    uint64_t tx_conflict_staged = 0; //!< staged block not allocated
    uint64_t quarantine_bad = 0;

    // Informational (do not make the heap un-clean).
    uint64_t poisoned_free_lines = 0;
    uint64_t poisoned_live_lines = 0;
    uint64_t canary_stomped = 0; //!< live block, dirtied canary word
                                 //!< (app overflow, not metadata)

    // Repair outcomes (repair() only).
    uint64_t repaired_headers = 0;
    uint64_t repaired_bitmaps = 0;
    uint64_t repaired_wal_entries = 0;
    uint64_t repaired_tx_entries = 0; //!< orphaned tx entries scrubbed
    uint64_t requarantined_slabs = 0;
    uint64_t scrubbed_lines = 0;

    /** Human-readable detail, one line per finding (capped). */
    std::vector<std::string> notes;

    /** Sum of the violation counters (kAuditCounters, auditor.cc). */
    uint64_t violations() const;

    bool clean() const { return violations() == 0; }

    /** Multi-line counter dump (fsck output, test failure messages). */
    std::string summary() const;

    /** Machine-readable report: every counter (including zeros, so
     *  consumers need no schema knowledge), verdict, and notes. */
    std::string json() const;
};

/**
 * Position of the incremental patrol walk across the heap's metadata.
 * Owned by the heap (NvAlloc) so it persists across maintenance
 * slices; each patrolStep() advances it by a bounded number of items
 * and wraps phase 3 -> 0 when a full pass completes.
 */
struct PatrolCursor
{
    unsigned phase = 0; //!< 0 superblock, 1 region table, 2 slabs,
                        //!< 3 log chain
    uint64_t pos = 0;   //!< phase-relative ordinal
    uint64_t passes = 0; //!< completed full walks
};

/** Outcome of one bounded patrol slice. */
struct PatrolSliceResult
{
    unsigned items = 0;    //!< metadata items examined
    unsigned findings = 0; //!< items with stable damage
    unsigned repaired = 0; //!< findings fixed in place (slab headers)
    unsigned retries = 0;  //!< transient mismatches re-read
    bool wrapped = false;  //!< a full pass completed this slice
    std::vector<std::string> notes; //!< the checks' notes (capped)
};

class HeapAuditor
{
  public:
    explicit HeapAuditor(NvAlloc &alloc);

    /** Read-only full-heap audit. */
    AuditReport audit();

    /** Audit, fixing every derivable violation along the way; the
     *  returned report counts both what was found and what was
     *  repaired. Run audit() again afterwards to confirm clean. */
    AuditReport repair();

    /**
     * Online patrol scrub: audit()'s per-item checks on up to
     * `max_items` items from `cur` (the superblock, a region-table
     * slot, a slab under its arena's vlock, or a log-chain item under
     * the large allocator's lock) against a LIVE mutator, called FROM
     * a maintenance slice (stage 5). Nothing is paused: a slab
     * mismatch counts only if `max_retries` re-reads see it unchanged,
     * only slab headers are repaired in place (VSlab::repairHeader),
     * and the checks of state the lock-free fast path mutates (vbitmap
     * counters, morph index, canaries, slab<->extent) stay audit-only,
     * like every whole-heap cross-check. The caller escalates findings.
     */
    PatrolSliceResult patrolStep(PatrolCursor &cur, unsigned max_items,
                                 unsigned max_retries);

  private:
    /** Snapshot of one VEH (state mirrors Veh::State's values). */
    struct ExtSnap
    {
        uint64_t off;
        uint64_t size;
        int state; //!< 0 activated, 1 reclaimed, 2 retained
        bool is_slab;
    };

    NvAlloc &a_;
    bool repair_ = false;
    bool live_ = false;        //!< a patrolStep batch (see there)
    unsigned max_retries_ = 0; //!< live re-reads per slab mismatch
    AuditReport rep_;
    PatrolSliceResult slice_; //!< patrolStep accounting
    uint64_t tallied_ = 0;    //!< rep_.violations() at the last tally()

    std::vector<ExtSnap> extents_; //!< sorted by offset
    std::vector<std::pair<uint64_t, uint64_t>> regions_; //!< (off, size)
    std::unordered_set<uint64_t> log_chunks_; //!< active chunk offsets

    AuditReport run(bool repair);
    void note(const std::string &msg);
    void tally();
    bool stable(const std::function<bool()> &unchanged);

    // Per-item checks, shared by audit()/repair() and patrolStep().
    void checkSuperblock();
    std::pair<uint64_t, uint64_t> checkRegionSlot(unsigned i);
    void checkSlab(VSlab *slab);
    bool walkLogChain(
        uint64_t &pos, uint64_t budget,
        const std::function<void(uint64_t, const LogChunk &)> &fn);

    // Whole-heap walks and cross-checks (audit()/repair() only).
    void checkRegionsAndExtents();
    void checkSlabs();
    void checkExtentJournal();
    void checkWalRings();
    void checkTxRecords();
    void checkQuarantine();
    void checkPoison();
    bool lineIsFree(uint64_t line);
    void scrubLine(uint64_t line);
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_AUDITOR_H
