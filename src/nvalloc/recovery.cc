/**
 * @file
 * Recovery paths of NVAlloc (paper §4.4).
 *
 * Normal-shutdown recovery rebuilds all volatile metadata: arenas are
 * recreated, the bookkeeping log (or the in-place descriptors) is
 * replayed to resurrect VEHs and vslabs — including slab_in morph
 * state from index tables — and the gaps between activated extents
 * become reclaimed free extents.
 *
 * Failure recovery additionally resolves in-flight operations: the
 * LOG variant replays the newest WAL entry of every thread ring and
 * rolls it forward or back depending on whether the attach word was
 * published; the GC variant runs a conservative mark from the
 * persistent roots and rebuilds every slab bitmap from reachability,
 * reclaiming leaked blocks and extents.
 */

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"

namespace nvalloc {

void
NvAlloc::recoverHeap()
{
    uint64_t t0 = VClock::now();
    recovery_.performed = true;

    // A failure happened if any arena never reached NormalShutdown.
    for (unsigned i = 0; i < sb_->num_arenas; ++i) {
        auto st = ArenaState(sb_->arena_state[i]);
        if (st == ArenaState::Running || st == ArenaState::Recovering)
            recovery_.after_failure = true;
    }

    // Root metadata recovery cannot contain (superblock, region table,
    // log header) degrades the open to Failed mode instead of being
    // guessed at.
    auto refuse = [&](const char *why) {
        NV_WARN(why);
        open_status_ = NvStatus::CorruptMetadata;
        last_status_.store(NvStatus::CorruptMetadata,
                           std::memory_order_relaxed);
    };

    // The superblock is the root of trust: if its config fields are
    // torn or poisoned, nothing below it can be located, so the open
    // fails before any persistent state is touched (the arena-state
    // stamp above all else), leaving the media exactly as found for
    // offline fsck.
    recovery_.lines_poisoned = dev_.poisonedLineCount();
    if (cfg_.verify_recovery_checksums &&
        (dev_.isPoisoned(sb_, sizeof(NvSuperblock)) ||
         sb_->sb_crc != superblockCrc(*sb_)))
        return refuse("superblock corrupt (crc/poison); "
                      "opening in Failed mode");
    if (sb_->version != kSuperVersion)
        return refuse("superblock version mismatch; opening in Failed mode");
    setArenaStates(ArenaState::Recovering);

    // The on-media format pins geometry choices; honour them over the
    // (possibly different) requested config.
    cfg_.num_arenas = sb_->num_arenas;
    cfg_.bit_stripes = sb_->stripes;
    cfg_.consistency = sb_->consistency == 0
                           ? Consistency::Log
                           : (sb_->consistency == 1
                                  ? Consistency::Gc
                                  : Consistency::InternalCollection);
    // The canary flag is likewise an on-media property: stamping
    // canaries into an image created without them would smash the last
    // word of full-size live blocks, and dropping them would leave
    // stale stamps the auditor reads as stomps. Adopt the image's
    // choice in both directions (zero on pre-hardening images).
    cfg_.redzone_canaries =
        (sb_->hardening_flags & kHardeningFlagCanaries) != 0;

    large_.init(&dev_, cfg_, usesBookkeepingLog() ? &log_ : nullptr);
    for (unsigned i = 0; i < cfg_.num_arenas; ++i) {
        arenas_.push_back(std::make_unique<Arena>(
            i, &dev_, &cfg_, &large_, &slab_radix_,
            &attached_threads_));
        arenas_.back()->setTelemetry(&tel_);
    }

    auto adopt_slab = [&](uint64_t off) {
        // Rebuilding a vslab reads the 4 KB persistent header (a
        // sequential burst) and scans the bitmap to reconstruct the
        // volatile copy and counters — this is why NVAlloc-LOG's
        // recovery is somewhat slower than PMDK's plain metadata walk
        // (paper Fig. 18: 45 ms vs 34 ms).
        for (int line = 0; line < 8; ++line)
            dev_.chargeRead(true);
        if (isQuarantined(off))
            return; // refused in an earlier recovery; still leaked
        if (!VSlab::headerLooksValid(&dev_, off,
                                     cfg_.verify_recovery_checksums)) {
            // A slab whose header cannot be trusted is contained, not
            // fatal: its 64 KB is leaked into the persistent
            // quarantine list and the rest of the heap stays usable.
            quarantineSlab(off);
            return;
        }
        if (cfg_.verify_recovery_checksums)
            VClock::advance(2, TimeKind::Other); // header crc math
        auto *slab = new VSlab(&dev_, off, gcMode());
        // Per-block vbitmap/counter reconstruction.
        VClock::advance(5 * uint64_t(slab->capacity()),
                        TimeKind::Other);
        // Distribute recovered slabs round-robin; the original
        // arena assignment is volatile state.
        arenas_[recovery_.slabs_rebuilt % arenas_.size()]
            ->registerSlab(slab);
        ++recovery_.slabs_rebuilt;
    };

    bool regions_ok;
    if (usesBookkeepingLog()) {
        // The log header is the single root of every large-extent
        // record; with it untrusted, replay would invent or drop
        // extents.
        if (!log_.attach(&dev_, sb_->log_off, sb_->log_bytes,
                         cfg_.interleaved_log, cfg_.log_gc_threshold,
                         /*create=*/false,
                         cfg_.verify_recovery_checksums))
            return refuse("bookkeeping log header corrupt; "
                          "opening in Failed mode");
        // Paper: "perform a slow GC on the persistent bookkeeping log
        // to clean up its tombstone entries. Then scan and process
        // every log entry."
        BookkeepingLog::ReplayRejects rejects =
            log_.replay([&](LogType type, uint64_t off, uint64_t size,
                            LogEntryRef ref) {
                large_.adoptActivated(off, size, type == kLogSlab, ref);
                ++recovery_.extents_rebuilt;
                if (type == kLogSlab)
                    adopt_slab(off);
            });
        log_.slowGc();
        regions_ok = large_.rebuildFreeSpace();
        recovery_.log_entries_rejected = rejects.entries;
        recovery_.log_chunks_rejected = rejects.chunks;
    } else {
        regions_ok = large_.recoverFromDescriptors(
            [&](uint64_t off, uint64_t size) {
                NV_ASSERT(size == kSlabSize);
                adopt_slab(off);
            });
    }
    // The region table lies outside every crc: one bad word would
    // unmap or carve a range that is not a region.
    if (!regions_ok)
        return refuse("region table corrupt; opening in Failed mode");
    recovery_.free_extents_rebuilt = large_.reclaimedBytes();

    if (recovery_.after_failure) {
        if (logMode()) {
            replayWals();
        } else if (gcMode()) {
            conservativeGc();
        }
        // InternalCollection: bitmaps are eagerly persisted and
        // self-describing; an interrupted operation left at most an
        // allocated-but-unpublished block, which the application can
        // always reach through forEachAllocated — no replay needed.
    }

    // Canary stamps are never flushed (they are detection state, not
    // heap state), so a crash may have dropped any subset of them with
    // the cut. Restamp every live small block so the first
    // post-recovery free of a surviving block is not misreported as a
    // stomp. No-op unless the image carries the canary flag.
    restampCanaries();

    // Seal every replay/repair effect before destroying the WAL
    // entries that describe it: if the effects and the entry clears
    // shared an epoch and recovery itself crashed at its end, a clear
    // could become durable while the effect it records was dropped —
    // and the next recovery would have nothing left to redo.
    dev_.fence();
    clearWalRings();
    recovery_.virtual_ns = VClock::now() - t0;
    tel_.add(StatCounter::RecoveryRun);
    tel_.event(TraceOp::Recovery, recovery_.virtual_ns);
}

void
NvAlloc::clearWalRings()
{
    for (unsigned i = 0; i < kMaxThreads; ++i) {
        auto *ring = static_cast<WalEntry *>(
            dev_.at(sb_->wal_off + uint64_t(i) * kWalRingBytes));

        // Retire occupied entries oldest-seq-first, one fenced epoch
        // each: should clearing itself crash, the durable ring is then
        // always a newest-suffix of the history, so the surviving
        // max-seq entry is still the one replay would (idempotently)
        // redo. A bulk clear can tear so that an ancient entry becomes
        // the ring's newest and replays a long-completed operation
        // against today's heap — freeing a live block.
        std::vector<WalEntry *> occupied;
        for (unsigned s = 0; s < kWalRingBytes / sizeof(WalEntry); ++s) {
            if ((ring[s].block_op & 3) != kWalNone)
                occupied.push_back(&ring[s]);
        }
        std::sort(occupied.begin(), occupied.end(),
                  [](const WalEntry *a, const WalEntry *b) {
                      return a->seq < b->seq;
                  });
        for (WalEntry *e : occupied) {
            std::memset(e, 0, sizeof(*e));
            dev_.persist(e, sizeof(*e), TimeKind::FlushWal);
            dev_.fence();
        }

        // Scrub the remaining (already empty or torn-beyond-crc) lines
        // in one cheap epoch; any tearing here can only zero bytes of
        // entries that no longer parse.
        std::memset(ring, 0, kWalRingBytes);
        dev_.persist(ring, kWalRingBytes, TimeKind::FlushWal);
    }
    dev_.fence();
}

/**
 * Roll the newest WAL entry of each ring forward or back. The attach
 * word is the commit point: if it holds the block offset, the alloc
 * completed (resp. the free never started), so the entry is redone;
 * otherwise it is undone (resp. the free is redone).
 */
void
NvAlloc::replayWals()
{
    // Tx runs found across the rings are resolved *after* the scan,
    // sorted by tx id. Different threads' committed transactions may
    // have written the same word (a KV bucket head, say): re-applying
    // their redo in arbitrary slot order could rewind the word to an
    // older committed value, orphaning whatever the newer transaction
    // linked. Callers that race on a word are required to serialize
    // those transactions begin-to-commit (the KV stripe lock does),
    // which makes tx-id order — ids are assigned at txBegin — the
    // commit order for every conflicting pair.
    std::vector<std::pair<uint32_t, uint64_t>> tx_runs;

    // Ids are allocated by a volatile counter, so this instance would
    // hand out ids the rings still hold records for (a sealed commit
    // from the previous instance, say). Seed the counter past every id
    // seen so a fresh transaction can never alias a stale run.
    uint32_t max_tx_id = 0;

    for (unsigned slot = 0; slot < kMaxThreads; ++slot) {
        uint64_t ring_off = sb_->wal_off + uint64_t(slot) * kWalRingBytes;
        dev_.chargeRead(true); // scanning the ring
        bool verify = cfg_.verify_recovery_checksums;
        if (verify) {
            // crc32c over the ring's 64 lines, already in cache from
            // the scan read.
            VClock::advance(kWalRingBytes / kCacheLine,
                            TimeKind::Other);
        }
        Wal::forEachIntact(&dev_, ring_off, [&](const WalEntry &we) {
            if (we.tx_id > max_tx_id)
                max_tx_id = we.tx_id;
        });

        unsigned rejected = 0;
        const WalEntry *e =
            Wal::newestEntry(&dev_, ring_off, &rejected, verify);
        recovery_.wal_rejected += rejected;
        if (!e)
            continue;

        // A tx-tagged newest entry means the crash hit inside a
        // transaction's journal / commit / apply window: resolve the
        // whole run all-or-nothing (tx.cc) instead of replaying the
        // one entry. A *non*-newest tx record needs nothing — the
        // owning thread continued past it, so its apply completed.
        if (e->tx_id != 0) {
            tx_runs.emplace_back(e->tx_id, ring_off);
            continue;
        }

        // Only a torn entry, passed on with verification off, is an
        // untagged word write: nothing journaled it, so leave it.
        WalOp op = WalOp(e->block_op & 3);
        if (op == kWalTxData)
            continue;
        const uint64_t *w = journaledWord(e->where_off);
        bool published = w && *w == e->block_op >> 2;
        if ((op == kWalAlloc) == published) {
            if (redoEntry(*e))
                ++recovery_.wal_completions;
        } else if (undoEntry(*e)) {
            ++recovery_.wal_undos;
        }
    }

    std::sort(tx_runs.begin(), tx_runs.end());
    for (const auto &[tx_id, ring_off] : tx_runs)
        resolveTxRun(ring_off, tx_id);

    tx_mgr_.seedNextId(max_tx_id);
}

/**
 * The redo rule of a journaled op, shared by transaction commit, the
 * redo of a committed transaction's run and the replay of a plain op
 * (DESIGN.md §11): an allocation claims its block again if its bit
 * was lost and publishes it, a free retires its block, a word write
 * lands its new value. Idempotent. Returns false when a free found
 * its block already free.
 */
bool
NvAlloc::redoEntry(const WalEntry &e)
{
    uint64_t block = e.block_op >> 2;
    switch (WalOp(e.block_op & 3)) {
    case kWalAlloc:
        // Publish only a block that demonstrably exists: a torn-line
        // crash can durably commit the record while the extent's own
        // log entry was dropped, and an attach word must never point
        // at space recovery just returned to the free pool.
        if (rollForwardAlloc(block))
            landWord(journaledWord(e.where_off), block);
        return true;
    case kWalFree:
        return settleFree(block) == FreeResult::Retired;
    case kWalTxData:
        if ((block & 7) == 0)
            landWord(journaledWord(block), e.size);
        return true;
    default:
        return false;
    }
}

/**
 * The undo rule, shared by transaction abort, the undo of an
 * uncommitted transaction's run and the replay of a plain op: an
 * allocation returns its block, a word write restores its old value,
 * a free changes nothing (it mutated nothing before its commit).
 * Idempotent. Returns false when there was nothing to undo.
 */
bool
NvAlloc::undoEntry(const WalEntry &e)
{
    uint64_t block = e.block_op >> 2;
    switch (WalOp(e.block_op & 3)) {
    case kWalAlloc: {
        bool retired = settleFree(block) == FreeResult::Retired;
        // An uncommitted allocation was never published, so the
        // attach word cannot hold the block — but scrub it
        // defensively against torn-entry replay with verify off.
        uint64_t *w = journaledWord(e.where_off);
        if (w && *w == block)
            landWord(w, 0);
        return retired;
    }
    case kWalTxData:
        if ((block & 7) == 0)
            landWord(journaledWord(block), e.where_off);
        return true;
    default:
        return false;
    }
}

/** The word at device offset `off` that an entry names, or nullptr for
 *  kWalNoWhere — and for a wild offset: with verification off a torn
 *  entry reaches replay, and it must not send recovery outside the
 *  device. */
uint64_t *
NvAlloc::journaledWord(uint64_t off)
{
    if (off > dev_.size() - sizeof(uint64_t))
        return nullptr;
    return static_cast<uint64_t *>(dev_.at(off));
}

/** Store `value` in `*w` durably, unless `w` is null or holds it. */
void
NvAlloc::landWord(uint64_t *w, uint64_t value)
{
    if (!w || *w == value)
        return;
    *w = value;
    dev_.persistFence(w, sizeof(uint64_t), TimeKind::FlushData);
}

/**
 * A committed allocation whose bit may be lost: normally the bit went
 * durable before the attach word (or commit record), but an early
 * cache eviction can persist the word while the bit is lost with the
 * cut — claim it again so the reachable object is never handed out
 * twice. Returns whether the block demonstrably exists: a slab block
 * (a live old-geometry block of a morphed slab included), or an
 * activated extent at exactly that offset.
 */
bool
NvAlloc::rollForwardAlloc(uint64_t block)
{
    if (VSlab *slab = slabOf(block)) {
        // Commit runs this beside live mutators: the fast-op gate keeps
        // a morph from changing the geometry under the lock-free check.
        if (slab->enterFast()) {
            unsigned idx = slab->blockIndexOf(block);
            bool live = idx < slab->capacity() && slab->isAllocated(idx);
            slab->exitFast();
            if (live)
                return true;
        }
        // A morph after the allocation left the block in the old
        // geometry, where the current bitmap does not describe it;
        // only the arena lock serializes the index table.
        VLockGuard g(slab->arena->lock);
        unsigned old_idx = 0;
        if (slab->isOldBlock(block, old_idx))
            return true;
        unsigned idx = slab->blockIndexOf(block);
        if (idx >= slab->capacity())
            return false;
        if (!slab->isAllocated(idx))
            slab->claimBlock(idx);
        return true;
    }
    Veh *veh = large_.findVeh(block);
    return veh && veh->off == block && !veh->is_slab &&
           veh->state == Veh::State::Activated;
}

/**
 * Conservative collection for the GC variant (paper §4.4, as in
 * Makalu): starting from the persistent root words, treat every
 * 8-byte-aligned word whose value is the offset of a live heap object
 * as a reference. Slab bitmaps are rebuilt purely from reachability —
 * which is what lets NVAlloc-GC skip all small-metadata flushes at
 * runtime.
 */
void
NvAlloc::conservativeGc()
{
    struct Range
    {
        uint64_t off;
        uint64_t size;
    };

    // Mark state.
    std::unordered_map<VSlab *, std::vector<bool>> slab_marks;
    std::unordered_map<VSlab *, std::vector<bool>> old_marks;
    std::unordered_set<Veh *> extent_marks;
    std::vector<Range> work;

    auto resolve = [&](uint64_t v) -> bool {
        if (v == 0 || v >= dev_.size() || (v & 7) != 0)
            return false;
        if (VSlab *slab = slabOf(v)) {
            if (v < slab->slabOffset() + kSlabHeaderSize)
                return false;
            uint64_t rel = v - slab->slabOffset() - kSlabHeaderSize;
            if (slab->morphing()) {
                // Try the old geometry: interior pointers into a
                // blocks_before range keep the old block alive.
                unsigned old_idx = 0;
                if (slab->isOldBlock(v, old_idx)) {
                    auto &marks = old_marks[slab];
                    if (marks.empty())
                        marks.assign(kMaxSlabBlocks, false);
                    if (!marks[old_idx]) {
                        marks[old_idx] = true;
                        work.push_back(
                            {v, SlabGeometry::compute(
                                    slab->header()->old_size_class,
                                    slab->header()->stripes)
                                    .block_size});
                    }
                    return true;
                }
            }
            unsigned idx = unsigned(rel / slab->blockSize());
            if (idx >= slab->capacity())
                return false;
            auto &marks = slab_marks[slab];
            if (marks.empty())
                marks.assign(slab->capacity(), false);
            if (!marks[idx]) {
                marks[idx] = true;
                work.push_back({slab->blockOffset(idx),
                                slab->blockSize()});
            }
            return true;
        }
        if (Veh *veh = large_.findVeh(v)) {
            if (veh->state != Veh::State::Activated || veh->is_slab)
                return false;
            if (extent_marks.insert(veh).second)
                work.push_back({veh->off, veh->size});
            return true;
        }
        return false;
    };

    for (unsigned i = 0; i < kNumGcRoots; ++i) {
        if (sb_->gc_roots[i] != 0)
            resolve(sb_->gc_roots[i]);
    }

    while (!work.empty()) {
        Range r = work.back();
        work.pop_back();
        // Each object dereference is a random PM read; scanning its
        // words is sequential.
        dev_.chargeRead(false);
        auto *words = static_cast<uint64_t *>(dev_.at(r.off));
        for (uint64_t i = 0; i < r.size / 8; ++i)
            resolve(words[i]);
        VClock::advance(2 * (r.size / 8), TimeKind::Other);
    }

    // Snapshot the slab set first: the reclaim pass below can release
    // fully-free slabs, which mutates the arenas' slab sets.
    std::vector<VSlab *> all_slabs;
    for (auto &arena : arenas_) {
        arena->forEachSlab(
            [&](VSlab *slab) { all_slabs.push_back(slab); });
    }

    // Pass 1 — roll forward: a reachable block whose bit never got
    // persisted was an in-flight allocation that already published its
    // offset; claim it. Claims run before any reclaim so a slab can
    // never be released while it still has reachable blocks.
    for (VSlab *slab : all_slabs) {
        auto it = slab_marks.find(slab);
        if (it == slab_marks.end())
            continue;
        VLockGuard g(slab->arena->lock);
        for (unsigned idx = 0; idx < slab->capacity(); ++idx) {
            if (!it->second[idx])
                continue;
            ++recovery_.gc_marked_blocks;
            if (!slab->isAllocated(idx)) {
                slab->claimBlock(idx);
                ++recovery_.wal_completions;
            }
        }
    }

    // Pass 2 — reclaim: allocated but unreachable blocks are leaks;
    // the persistent bitmap becomes exactly the reachable set.
    for (VSlab *slab : all_slabs) {
        auto it = slab_marks.find(slab);
        {
            VLockGuard g(slab->arena->lock);
            for (unsigned idx = 0; idx < slab->capacity(); ++idx) {
                bool reachable =
                    it != slab_marks.end() && it->second[idx];
                if (slab->isAllocated(idx) && !reachable) {
                    slab->arena->freeDirect(slab, idx);
                    ++recovery_.gc_reclaimed_blocks;
                }
            }
        }
        if (slab->morphing()) {
            // Old blocks whose index entries are live but that are
            // unreachable get reclaimed through the morph path.
            auto oit = old_marks.find(slab);
            std::vector<unsigned> dead;
            const SlabHeader *hdr = slab->header();
            for (unsigned i = 0; i < hdr->index_count; ++i) {
                uint16_t entry = hdr->index_table[i];
                if (!(entry & kIndexAllocated))
                    continue;
                unsigned old_idx = entry & kIndexBlockMask;
                bool reachable = oit != old_marks.end() &&
                                 oit->second[old_idx];
                if (!reachable)
                    dead.push_back(old_idx);
            }
            for (unsigned old_idx : dead) {
                VLockGuard g(slab->arena->lock);
                slab->arena->freeOld(slab, old_idx);
                ++recovery_.gc_reclaimed_blocks;
            }
        }
    }

    // Sweep large extents.
    std::vector<uint64_t> dead_extents;
    large_.forEachActivated([&](Veh *veh) {
        if (!veh->is_slab && !extent_marks.count(veh))
            dead_extents.push_back(veh->off);
    });
    for (uint64_t off : dead_extents) {
        large_.free(off);
        ++recovery_.gc_reclaimed_extents;
    }
}

} // namespace nvalloc
