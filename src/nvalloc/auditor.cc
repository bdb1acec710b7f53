#include "nvalloc/auditor.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/json.h"
#include "common/logging.h"
#include "nvalloc/nvalloc.h"

namespace nvalloc {

namespace {

constexpr size_t kMaxNotes = 64;

std::string
fmt(const char *f, uint64_t a, uint64_t b = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), f, (unsigned long long)a,
                  (unsigned long long)b);
    return buf;
}

/** The report's counters, named once: the order is the summary and
 *  JSON order, and only Violation counters make a heap un-clean. */
enum class AuditKind
{
    Violation,
    Info,
    Repair,
};

struct AuditCounter
{
    const char *name;
    uint64_t AuditReport::*member;
    AuditKind kind;
};

#define NV_AUDIT_COUNTER(m, kind) {#m, &AuditReport::m, AuditKind::kind}
constexpr AuditCounter kAuditCounters[] = {
    NV_AUDIT_COUNTER(superblock_bad, Violation),
    NV_AUDIT_COUNTER(region_table_bad, Violation),
    NV_AUDIT_COUNTER(extent_overlap, Violation),
    NV_AUDIT_COUNTER(extent_gap, Violation),
    NV_AUDIT_COUNTER(slab_header_bad, Violation),
    NV_AUDIT_COUNTER(slab_veh_mismatch, Violation),
    NV_AUDIT_COUNTER(bitmap_mismatch, Violation),
    NV_AUDIT_COUNTER(counter_mismatch, Violation),
    NV_AUDIT_COUNTER(log_chain_bad, Violation),
    NV_AUDIT_COUNTER(log_entry_bad, Violation),
    NV_AUDIT_COUNTER(log_entry_orphan, Violation),
    NV_AUDIT_COUNTER(veh_unlogged, Violation),
    NV_AUDIT_COUNTER(wal_entry_bad, Violation),
    NV_AUDIT_COUNTER(tx_orphan_entries, Violation),
    NV_AUDIT_COUNTER(tx_conflict_staged, Violation),
    NV_AUDIT_COUNTER(quarantine_bad, Violation),
    NV_AUDIT_COUNTER(poisoned_free_lines, Info),
    NV_AUDIT_COUNTER(poisoned_live_lines, Info),
    NV_AUDIT_COUNTER(canary_stomped, Info),
    NV_AUDIT_COUNTER(repaired_headers, Repair),
    NV_AUDIT_COUNTER(repaired_bitmaps, Repair),
    NV_AUDIT_COUNTER(repaired_wal_entries, Repair),
    NV_AUDIT_COUNTER(repaired_tx_entries, Repair),
    NV_AUDIT_COUNTER(requarantined_slabs, Repair),
    NV_AUDIT_COUNTER(scrubbed_lines, Repair),
};
#undef NV_AUDIT_COUNTER

} // namespace

uint64_t
AuditReport::violations() const
{
    uint64_t n = 0;
    for (const AuditCounter &c : kAuditCounters)
        if (c.kind == AuditKind::Violation)
            n += this->*c.member;
    return n;
}

std::string
AuditReport::summary() const
{
    std::string s = clean() ? "audit: clean\n"
                            : fmt("audit: %llu violation(s)\n", violations());
    for (const AuditCounter &c : kAuditCounters) {
        if (this->*c.member == 0)
            continue;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-22s %llu\n", c.name,
                      (unsigned long long)(this->*c.member));
        s += buf;
    }
    for (const auto &n : notes)
        s += "  - " + n + "\n";
    return s;
}

std::string
AuditReport::json() const
{
    JsonWriter w;
    w.beginObject();
    w.key("clean").value(clean());
    w.key("violations").value(violations());
    w.key("counters").beginObject();
    for (const AuditCounter &c : kAuditCounters)
        w.key(c.name).value(this->*c.member);
    w.endObject();
    w.key("notes").beginArray();
    for (const auto &n : notes)
        w.value(n);
    w.endArray();
    w.endObject();
    return w.take();
}

HeapAuditor::HeapAuditor(NvAlloc &alloc) : a_(alloc) {}

AuditReport
HeapAuditor::audit()
{
    return run(false);
}

AuditReport
HeapAuditor::repair()
{
    return run(true);
}

void
HeapAuditor::note(const std::string &msg)
{
    if (rep_.notes.size() < kMaxNotes)
        rep_.notes.push_back(msg);
}

/** Patrol accounting after each examined item: one finding if its
 *  checks raised any violation, however many. */
void
HeapAuditor::tally()
{
    ++slice_.items;
    uint64_t v = rep_.violations();
    if (v != tallied_)
        ++slice_.findings;
    tallied_ = v;
}

/** A live mismatch counts only if `unchanged` holds on each of
 *  max_retries_ re-reads; audit() has none to make. */
bool
HeapAuditor::stable(const std::function<bool()> &unchanged)
{
    for (unsigned r = 0; r < max_retries_; ++r) {
        ++slice_.retries;
        std::this_thread::yield();
        if (!unchanged())
            return false;
    }
    return true;
}

AuditReport
HeapAuditor::run(bool repair)
{
    // The auditor needs a quiescent heap: a concurrent maintenance
    // slice could scrub a poisoned line or compact the log between two
    // checks and turn a consistent image into a phantom violation.
    struct MaintQuiesce
    {
        MaintenanceService &m;
        explicit MaintQuiesce(MaintenanceService &m_) : m(m_)
        {
            m.pause();
        }
        ~MaintQuiesce() { m.resume(); }
    } quiesce(a_.maint_);

    rep_ = AuditReport{};
    repair_ = repair;
    extents_.clear();
    regions_.clear();
    log_chunks_.clear();

    checkSuperblock();
    if (a_.open_status_ != NvStatus::Ok) {
        // Nothing below the root was adopted. The checks name a bad
        // superblock, else a bad region table; a clean root means the
        // refusal came from the log root.
        if (rep_.clean()) {
            for (unsigned i = 0; i < kRegionTableSlots; ++i)
                checkRegionSlot(i);
        }
        if (rep_.clean()) {
            ++rep_.log_chain_bad;
            note("heap failed to open: bookkeeping-log root corrupt");
        }
        return rep_;
    }

    checkRegionsAndExtents();
    checkSlabs();
    checkExtentJournal();
    checkWalRings();
    checkTxRecords();
    checkQuarantine();
    checkPoison();
    return rep_;
}

// ---- online patrol scrub (maintenance stage 5) ---------------------
// Runs FROM a maintenance slice, so unlike run() it pauses nothing;
// live_ switches the shared per-item checks to their live mode.

PatrolSliceResult
HeapAuditor::patrolStep(PatrolCursor &cur, unsigned max_items,
                        unsigned max_retries)
{
    rep_ = AuditReport{};
    slice_ = PatrolSliceResult{};
    tallied_ = 0;
    if (a_.open_status_ != NvStatus::Ok)
        return slice_; // degraded open: nothing below the root adopted
    live_ = true;
    max_retries_ = max_retries;
    const unsigned budget = max_items ? max_items : 1;
    // At most one visit per phase per slice; a slice never walks more
    // than one full pass even when the heap is smaller than the budget.
    for (unsigned hops = 0;
         slice_.items < budget && hops < 5 && !slice_.wrapped; ++hops) {
        bool done = true; // the phase's last item was examined
        switch (cur.phase) {
        case 0:
            checkSuperblock();
            tally();
            break;
        case 1:
            for (; cur.pos < kRegionTableSlots && slice_.items < budget;
                 ++cur.pos) {
                checkRegionSlot(unsigned(cur.pos));
                tally();
            }
            done = cur.pos >= kRegionTableSlots;
            break;
        case 2: {
            uint64_t ord = 0;
            for (auto &arena : a_.arenas_) {
                arena->forEachSlab([&](VSlab *slab) {
                    if (ord++ < cur.pos || slice_.items >= budget)
                        return;
                    cur.pos = ord;
                    checkSlab(slab);
                    tally();
                });
            }
            done = cur.pos >= ord;
            break;
        }
        default:
            if (a_.usesBookkeepingLog()) {
                // The large allocator's lock keeps GC from rewriting the
                // chain mid-walk; entry appends inside a chunk do not
                // touch the chunk header line the crc covers.
                VLockGuard g(a_.large_.lock());
                walkLogChain(cur.pos, budget - slice_.items, nullptr);
            } else {
                cur.pos = 0;
            }
            done = slice_.wrapped = cur.pos == 0;
            cur.passes += done;
            break;
        }
        if (done) {
            cur.phase = (cur.phase + 1) % 4;
            cur.pos = 0;
        }
    }
    slice_.repaired = unsigned(rep_.repaired_headers);
    slice_.notes = std::move(rep_.notes);
    return slice_;
}

void
HeapAuditor::checkSuperblock()
{
    const NvSuperblock *sb = a_.sb_;
    PmDevice &dev = a_.dev_;

    if (dev.isPoisoned(sb, sizeof(NvSuperblock))) {
        ++rep_.superblock_bad;
        note("superblock: poisoned line");
    }
    if (sb->magic != kSuperMagic) {
        ++rep_.superblock_bad;
        note("superblock: bad magic");
        return; // the rest of the fields are noise
    }
    if (sb->version != kSuperVersion) {
        ++rep_.superblock_bad;
        note(fmt("superblock: version %llu", sb->version));
    }
    if (sb->sb_crc != superblockCrc(*sb)) {
        ++rep_.superblock_bad;
        note("superblock: crc mismatch");
    }
    if (sb->num_arenas == 0 || sb->num_arenas > kMaxArenas) {
        ++rep_.superblock_bad;
        note(fmt("superblock: num_arenas %llu", sb->num_arenas));
    }
    if (sb->consistency > 2) {
        ++rep_.superblock_bad;
        note(fmt("superblock: consistency %llu", sb->consistency));
    }
    if (sb->wal_off == 0 ||
        sb->wal_off + uint64_t(kMaxThreads) * kWalRingBytes > dev.size()) {
        ++rep_.superblock_bad;
        note(fmt("superblock: wal region 0x%llx out of bounds",
                 sb->wal_off));
    }
    if (sb->log_off != 0 &&
        (sb->log_bytes < kLogHeaderArea + 4 * kLogChunkStride ||
         sb->log_off + sb->log_bytes > dev.size())) {
        ++rep_.superblock_bad;
        note(fmt("superblock: log region 0x%llx+%llu out of bounds",
                 sb->log_off, sb->log_bytes));
    }
}

/** One region-table slot. Entries are published and retired with
 *  single-word updates, so even a live read sees 0 or a whole entry,
 *  which must decode to an aligned, in-device region. Returns it, or
 *  size 0 for an empty or bad slot. */
std::pair<uint64_t, uint64_t>
HeapAuditor::checkRegionSlot(unsigned i)
{
    uint64_t e = loadRegionWord(regionTable(a_.dev_)[i]);
    if (e == 0)
        return {0, 0};
    uint64_t off = regionEntryOff(e);
    uint64_t size = regionEntrySize(e);
    if (!regionEntryValid(e, a_.dev_.size())) {
        ++rep_.region_table_bad;
        note(fmt("region table: bad entry 0x%llx+%llu", off, size));
        return {0, 0};
    }
    return {off, size};
}

void
HeapAuditor::checkRegionsAndExtents()
{
    a_.large_.forEachRegion(
        [&](uint64_t off, uint64_t size) { regions_.push_back({off, size}); });
    std::sort(regions_.begin(), regions_.end());

    a_.large_.forEachVeh([&](Veh *v) {
        extents_.push_back(
            {v->off, v->size, int(v->state), v->is_slab});
    });
    std::sort(extents_.begin(), extents_.end(),
              [](const ExtSnap &a, const ExtSnap &b) {
                  return a.off < b.off;
              });

    // Region table (persistent) vs the volatile region map.
    std::unordered_map<uint64_t, uint64_t> table;
    for (unsigned i = 0; i < kRegionTableSlots; ++i) {
        auto [off, size] = checkRegionSlot(i);
        if (size && !table.emplace(off, size).second) {
            ++rep_.region_table_bad;
            note(fmt("region table: duplicate region 0x%llx", off));
        }
    }
    for (const auto &[off, size] : regions_) {
        auto it = table.find(off);
        if (it == table.end() || it->second != size) {
            ++rep_.region_table_bad;
            note(fmt("region 0x%llx+%llu missing from table", off, size));
        } else {
            table.erase(it);
        }
    }
    for (const auto &[off, size] : table) {
        ++rep_.region_table_bad;
        note(fmt("region table: stale entry 0x%llx+%llu", off, size));
    }

    // Regions must not overlap.
    for (size_t i = 1; i < regions_.size(); ++i) {
        if (regions_[i - 1].first + regions_[i - 1].second >
            regions_[i].first) {
            ++rep_.region_table_bad;
            note(fmt("regions 0x%llx and 0x%llx overlap",
                     regions_[i - 1].first, regions_[i].first));
        }
    }

    // Every region's payload must be tiled by extents exactly: start
    // at the header boundary, no gap, no overlap, flush with the end.
    size_t ei = 0;
    for (const auto &[roff, rsize] : regions_) {
        while (ei < extents_.size() && extents_[ei].off < roff) {
            // An extent below every remaining region is orphaned.
            ++rep_.extent_gap;
            note(fmt("extent 0x%llx outside any region",
                     extents_[ei].off));
            ++ei;
        }
        uint64_t cursor = roff + kRegionHeaderSize;
        uint64_t rend = roff + rsize;
        while (ei < extents_.size() && extents_[ei].off < rend) {
            const ExtSnap &e = extents_[ei];
            if (e.off < cursor) {
                ++rep_.extent_overlap;
                note(fmt("extent 0x%llx overlaps previous end 0x%llx",
                         e.off, cursor));
            } else if (e.off > cursor) {
                ++rep_.extent_gap;
                note(fmt("gap [0x%llx, 0x%llx) not covered", cursor,
                         e.off));
            }
            cursor = e.off + e.size;
            ++ei;
        }
        if (cursor != rend) {
            ++rep_.extent_gap;
            note(fmt("gap [0x%llx, 0x%llx) at region tail", cursor,
                     rend));
        }
    }
    while (ei < extents_.size()) {
        ++rep_.extent_gap;
        note(fmt("extent 0x%llx outside any region", extents_[ei].off));
        ++ei;
    }
}

/** One slab: header, persistent-bitmap popcount vs live count, then
 *  (audit only) volatile counters, morph index, canaries, extent. */
void
HeapAuditor::checkSlab(VSlab *slab)
{
    PmDevice &dev = a_.dev_;
    uint64_t off = slab->slabOffset();

    // Header line (magic + geometry crc). Morphing rewrites it under
    // the arena lock the walk holds, so only media faults can race a
    // live read; it is re-read before it counts anyway.
    auto header_ok = [&] { return VSlab::headerLooksValid(&dev, off, true); };
    if (!header_ok() && stable([&] { return !header_ok(); })) {
        ++rep_.slab_header_bad;
        note(fmt("slab 0x%llx: header invalid", off));
        if (repair_ || live_) {
            if (slab->repairHeader()) {
                ++rep_.repaired_headers;
            } else {
                note(fmt("slab 0x%llx: header not repairable (morphing)",
                         off));
            }
        }
        if (live_)
            return; // bitmap math is noise under a smashed header
    }

    // The whole 2 KB bitmap is popcounted, not just the active
    // geometry's physical slots, so a stray bit outside the mapped
    // range is a violation too. No lock orders the read against the
    // lock-free fast path, so a capture is trusted only when the slab's
    // fast-op epoch brackets it: no fast op in flight on either side
    // and no epoch advance in between (DESIGN.md §14). An untrusted
    // capture is moving, not corrupt: audit() retries it, and a live
    // batch leaves it to the next pass.
    auto capture = [slab](std::pair<uint64_t, uint64_t> &pop_live) {
        uint64_t e0 = slab->fpEpoch();
        if (slab->fpBusy())
            return false;
        pop_live = {slab->persistentPopcount(), slab->liveBlocks()};
        return !slab->fpBusy() && slab->fpEpoch() == e0;
    };
    std::pair<uint64_t, uint64_t> c, again;
    bool trusted = capture(c);
    for (unsigned r = 1; r < (live_ ? 1u : 8u) && !trusted; ++r) {
        std::this_thread::yield();
        trusted = capture(c);
    }
    if (trusted && c.first != c.second &&
        stable([&] { return capture(again) && again == c; })) {
        ++rep_.bitmap_mismatch;
        note(fmt("slab 0x%llx: bitmap popcount %llu != live", off,
                 c.first));
        if (repair_) {
            if (slab->rebuildPersistentBitmap())
                ++rep_.repaired_bitmaps;
            else
                note(fmt("slab 0x%llx: bitmap not repairable "
                         "(lent blocks or morphing)",
                         off));
        }
    }
    if (live_)
        return; // the checks below read state the fast path mutates

    unsigned vset = 0;
    for (unsigned idx = 0; idx < slab->capacity(); ++idx)
        vset += slab->vbitTest(idx) ? 1 : 0;
    if (vset != slab->capacity() - slab->available()) {
        ++rep_.counter_mismatch;
        note(fmt("slab 0x%llx: vbitmap %llu blocks vs counters", off,
                 vset));
    }

    if (slab->morphing()) {
        const SlabHeader *h = slab->header();
        unsigned live_old = 0;
        for (unsigned i = 0; i < h->index_count; ++i)
            live_old += (h->index_table[i] & kIndexAllocated) ? 1 : 0;
        if (live_old != slab->cntSlab()) {
            ++rep_.counter_mismatch;
            note(fmt("slab 0x%llx: index table %llu live old blocks vs "
                     "cnt_slab",
                     off, live_old));
        }
    }

    // Canary sweep (informational): a dirtied canary word in a live
    // block is application damage, not metadata damage — reported so
    // operators see overflows before the free-time check would, but
    // never counted as a heap violation. Morphing slabs are skipped:
    // old-geometry blocks carry stamps from a different block size.
    if (a_.cfg_.redzone_canaries && !slab->morphing()) {
        unsigned bsize = slab->blockSize();
        for (unsigned idx = 0; idx < slab->capacity(); ++idx) {
            if (!slab->isAllocated(idx))
                continue;
            uint64_t boff = slab->blockOffset(idx);
            uint64_t word = 0;
            std::memcpy(&word,
                        static_cast<const uint8_t *>(dev.at(boff)) +
                            bsize - HardeningManager::kCanaryBytes,
                        sizeof(word));
            if (word != HardeningManager::canaryValue(boff)) {
                ++rep_.canary_stomped;
                note(fmt("block 0x%llx: canary stomped", boff));
            }
        }
    }

    Veh *veh = a_.large_.findVeh(off);
    if (!veh || veh->off != off || veh->size != kSlabSize ||
        veh->state != Veh::State::Activated || !veh->is_slab) {
        ++rep_.slab_veh_mismatch;
        note(fmt("slab 0x%llx: no activated slab extent", off));
    }
}

void
HeapAuditor::checkSlabs()
{
    for (auto &arena : a_.arenas_)
        arena->forEachSlab([&](VSlab *slab) { checkSlab(slab); });

    // Reverse direction: every activated slab extent must be backed by
    // a vslab — or be quarantined, which is exactly what repair does.
    for (const ExtSnap &e : extents_) {
        if (e.state != int(Veh::State::Activated) || !e.is_slab)
            continue;
        VSlab *slab = a_.slabOf(e.off);
        if (slab && slab->slabOffset() == e.off)
            continue;
        if (a_.isQuarantined(e.off))
            continue;
        ++rep_.slab_veh_mismatch;
        note(fmt("slab extent 0x%llx has no vslab and is not "
                 "quarantined",
                 e.off));
        if (repair_) {
            a_.quarantineSlab(e.off);
            ++rep_.requarantined_slabs;
        }
    }
}

/**
 * Walk the log chain (ordinal 0 the header, k the k-th chunk): examine
 * up to `budget` ordinals from `pos` on (header magic/crc/bounds, chunk
 * offsets, cycles, chunk crcs, duplicate ids) and hand each sound chunk
 * to `fn`. Leaves `pos` at the ordinal to resume at, 0 once the chain
 * ends or breaks; false if the header itself is invalid.
 */
bool
HeapAuditor::walkLogChain(
    uint64_t &pos, uint64_t budget,
    const std::function<void(uint64_t, const LogChunk &)> &fn)
{
    PmDevice &dev = a_.dev_;
    const uint64_t log_off = a_.sb_->log_off;
    const uint64_t log_bytes = a_.sb_->log_bytes;
    const auto *lh = static_cast<const LogHeader *>(dev.at(log_off));
    if (pos == 0) {
        --budget;
        bool bad = dev.isPoisoned(lh, sizeof(LogHeader)) ||
                   lh->magic != kLogMagic || lh->crc != logHeaderCrc(*lh) ||
                   lh->alt > 1 ||
                   lh->num_chunks >
                       (log_bytes - kLogHeaderArea) / kLogChunkStride;
        if (bad) {
            ++rep_.log_chain_bad;
            note("log header: invalid");
        }
        tally();
        if (bad)
            return false; // the chain pointer would chase garbage
    }

    std::unordered_set<uint32_t> ids;
    uint64_t ord = 1;
    for (uint64_t off = lh->head[lh->alt]; off; ++ord) {
        const bool examine = ord >= pos;
        if (examine && budget-- == 0) {
            pos = ord;
            return true;
        }
        const auto *pc = static_cast<const LogChunk *>(dev.at(off));
        const char *bad = nullptr;
        if (!logChunkOffValid(log_off, log_bytes, off))
            bad = "log chain: bad chunk offset 0x%llx";
        else if (!log_chunks_.insert(off).second)
            bad = "log chain: cycle at 0x%llx";
        else if (examine && (dev.isPoisoned(pc, kLogHeaderArea) ||
                             pc->crc != logChunkCrc(*pc) || pc->active != 1))
            bad = "log chunk 0x%llx: bad header";
        if (bad) {
            ++rep_.log_chain_bad;
            note(fmt(bad, off));
            tally();
            break; // the next pointer is untrustworthy
        }
        if (!ids.insert(pc->id).second && examine) {
            ++rep_.log_chain_bad;
            note(fmt("log chain: duplicate chunk id %llu", pc->id));
        }
        if (examine) {
            if (fn)
                fn(off, *pc);
            tally();
        }
        off = pc->next;
    }
    pos = 0;
    return true;
}

void
HeapAuditor::checkExtentJournal()
{
    PmDevice &dev = a_.dev_;

    if (!a_.usesBookkeepingLog()) {
        // In-place mode: every activated extent's descriptor slot must
        // record it as allocated.
        a_.large_.forEachVeh([&](Veh *v) {
            if (v->state != Veh::State::Activated)
                return;
            if (v->desc_off == 0 ||
                v->desc_off + sizeof(ExtentDesc) > dev.size()) {
                ++rep_.veh_unlogged;
                note(fmt("extent 0x%llx: no descriptor slot", v->off));
                return;
            }
            const auto *d =
                static_cast<const ExtentDesc *>(dev.at(v->desc_off));
            if (d->offset != v->off || d->size != v->size ||
                d->state != 1 || (d->is_slab != 0) != v->is_slab) {
                ++rep_.veh_unlogged;
                note(fmt("extent 0x%llx: descriptor mismatch", v->off));
            }
        });
        return;
    }

    // Independent walk of the persistent chunk chain (same structural
    // rules as replay, but read-only and cross-checked against the
    // volatile extent state instead of rebuilding it).
    InterleaveMap map = InterleaveMap::build(
        kLogEntriesPerChunk, 64,
        a_.cfg_.interleaved_log ? kLogChunkStripes : 1);
    auto key = [](uint32_t id, uint32_t slot) {
        return (uint64_t(id) << 32) | slot;
    };

    struct LiveEnt
    {
        uint64_t off;
        uint64_t size;
        bool is_slab;
    };
    std::unordered_map<uint64_t, LiveEnt> live;
    std::vector<std::pair<uint32_t, uint32_t>> tombs;

    uint64_t pos = 0;
    bool header_ok = walkLogChain(
        pos, ~uint64_t{0}, [&](uint64_t off, const LogChunk &pc) {
            for (unsigned slot = 0; slot < kLogEntriesPerChunk; ++slot) {
                const uint64_t &w = pc.entries[map.physical(slot)];
                if (w == 0)
                    continue; // never appended (appends are dense)
                if (dev.isPoisoned(&w, 8) || !logEntryChecksumOk(w)) {
                    ++rep_.log_entry_bad;
                    note(fmt("log chunk 0x%llx slot %llu: bad entry", off,
                             slot));
                    continue;
                }
                LogType t = logEntryType(w);
                if (t == kLogTombstone) {
                    tombs.push_back({uint32_t(logEntryAddr(w)),
                                     uint32_t(logEntrySize(w))});
                } else if (t == kLogNormal || t == kLogSlab) {
                    live[key(pc.id, slot)] = {logEntryAddr(w) << 12,
                                              logEntrySize(w),
                                              t == kLogSlab};
                }
            }
        });
    if (!header_ok)
        return;
    for (const auto &[id, slot] : tombs)
        live.erase(key(id, slot));

    // Every activated extent must own exactly one live entry, and
    // every live entry must describe an activated extent.
    a_.large_.forEachVeh([&](Veh *v) {
        if (v->state != Veh::State::Activated)
            return;
        auto it = live.find(key(v->log_ref.chunk_id, v->log_ref.slot));
        if (it == live.end() || it->second.off != v->off ||
            it->second.size != v->size ||
            it->second.is_slab != v->is_slab) {
            ++rep_.veh_unlogged;
            note(fmt("extent 0x%llx: no matching log entry", v->off));
        } else {
            live.erase(it);
        }
    });
    for (const auto &[k, e] : live) {
        (void)k;
        ++rep_.log_entry_orphan;
        note(fmt("log entry for 0x%llx+%llu has no extent", e.off,
                 e.size));
    }
}

void
HeapAuditor::checkWalRings()
{
    PmDevice &dev = a_.dev_;
    const NvSuperblock *sb = a_.sb_;

    for (unsigned slot = 0; slot < kMaxThreads; ++slot) {
        uint64_t ring_off = sb->wal_off + uint64_t(slot) * kWalRingBytes;
        auto *ring = static_cast<WalEntry *>(dev.at(ring_off));
        for (unsigned s = 0; s < kWalRingBytes / sizeof(WalEntry); ++s) {
            WalEntry &e = ring[s];
            unsigned op = unsigned(e.block_op & 3);
            if (op == kWalNone)
                continue;
            bool bad = !walEntryIntact(dev, e);
            if (!bad) {
                // Structural rules per entry flavour. kWalTxData exists
                // only inside a transaction: a word-write op (offset
                // bounded) or a commit/abort record (op count bounded).
                // Plain alloc/free entries carry a bounded offset and a
                // tag that is either absent or a tx op.
                if (op == unsigned(kWalTxData)) {
                    bad = e.tx_id == 0 ||
                          (e.tx_mark != kWalTxOp &&
                           e.tx_mark != kWalTxCommit &&
                           e.tx_mark != kWalTxAbort &&
                           e.tx_mark != kWalTxApplied) ||
                          (e.tx_mark == kWalTxOp
                               ? (e.block_op >> 2) >= dev.size()
                               : (e.block_op >> 2) > kWalRingEntries);
                } else {
                    bad = (e.block_op >> 2) >= dev.size() ||
                          (e.tx_id == 0 ? e.tx_mark != kWalTxNone
                                        : e.tx_mark != kWalTxOp);
                }
            }
            if (!bad)
                continue;
            ++rep_.wal_entry_bad;
            note(fmt("wal ring %llu entry %llu: torn/poisoned", slot,
                     s));
            if (repair_) {
                std::memset(&e, 0, sizeof(e));
                dev.persist(&e, sizeof(e), TimeKind::FlushWal);
                dev.fence();
                ++rep_.repaired_wal_entries;
            }
        }
    }
}

/**
 * Transaction-layer invariants over the WAL rings and the volatile
 * staged registry (DESIGN.md §11):
 *
 *  - every intact tx-tagged op entry belongs to a transaction that is
 *    either still open (live audit) or has its commit/abort record in
 *    the same ring — anything else is an orphan: its tx can never be
 *    resolved (a stomped record, or entries that leaked past
 *    recovery), and replay would mis-handle the run after the next
 *    crash. Repair scrubs the orphaned entries; the run was either
 *    fully applied (record stomped after apply) or will be undone as
 *    recordless on recovery, so the entries carry no information a
 *    future replay may rely on once flagged;
 *  - no transaction has both a commit and an abort record (ambiguous
 *    resolution; reported, never repaired by guessing);
 *  - every offset in the staged registry is a currently-allocated
 *    block: a staged-but-free block means tx bookkeeping and the heap
 *    disagree, and a plain allocation could now hand the same block
 *    out twice. Repair re-claims slab blocks.
 */
void
HeapAuditor::checkTxRecords()
{
    PmDevice &dev = a_.dev_;
    const NvSuperblock *sb = a_.sb_;

    for (unsigned slot = 0; slot < kMaxThreads; ++slot) {
        uint64_t ring_off = sb->wal_off + uint64_t(slot) * kWalRingBytes;
        auto *ring = static_cast<WalEntry *>(dev.at(ring_off));

        struct TxRun
        {
            std::vector<unsigned> op_slots;
            bool commit = false;
            bool abort = false;
        };
        std::unordered_map<uint32_t, TxRun> runs;
        // Torn entries are skipped: checkWalRings counted/repaired them.
        Wal::forEachIntact(&dev, ring_off, [&](const WalEntry &e) {
            if (e.tx_id == 0)
                return;
            TxRun &r = runs[e.tx_id];
            if (e.tx_mark == kWalTxCommit || e.tx_mark == kWalTxApplied)
                r.commit = true;
            else if (e.tx_mark == kWalTxAbort)
                r.abort = true;
            else
                r.op_slots.push_back(unsigned(&e - ring));
        });
        if (runs.empty())
            continue;

        // Open transactions live in the attached threads' contexts
        // (id 0: none open); read them after the scan, so a tx counts
        // as open if it still is once its entries were seen.
        std::unordered_set<uint32_t> open;
        {
            std::lock_guard<std::mutex> g(a_.attach_mutex_);
            for (const ThreadCtx *ctx : a_.ctxs_)
                open.insert(ctx->tx.id());
        }

        for (auto &[id, r] : runs) {
            if (r.commit && r.abort) {
                ++rep_.tx_orphan_entries;
                note(fmt("wal ring %llu: tx %llu has both commit and "
                         "abort records",
                         slot, id));
                continue;
            }
            if (r.op_slots.empty() || r.commit || r.abort ||
                open.count(id))
                continue;
            ++rep_.tx_orphan_entries;
            note(fmt("wal ring %llu: orphaned entries of tx %llu", slot,
                     id));
            if (repair_) {
                for (unsigned s : r.op_slots) {
                    WalEntry &e = ring[s];
                    std::memset(&e, 0, sizeof(e));
                    dev.persist(&e, sizeof(e), TimeKind::FlushWal);
                    dev.fence();
                    ++rep_.repaired_tx_entries;
                }
            }
        }
    }

    for (uint64_t off : a_.tx_mgr_.stagedSnapshot()) {
        bool allocated = false;
        VSlab *slab = off < dev.size() ? a_.slabOf(off) : nullptr;
        unsigned idx = 0;
        if (slab) {
            unsigned old_idx = 0;
            if (slab->isOldBlock(off, old_idx)) {
                allocated = true;
            } else {
                idx = slab->blockIndexOf(off);
                allocated = idx < slab->capacity() &&
                            slab->blockOffset(idx) == off &&
                            slab->isAllocated(idx);
            }
        } else if (off < dev.size()) {
            Veh *veh = a_.large_.findVeh(off);
            allocated = veh && veh->off == off &&
                        veh->state == Veh::State::Activated;
        }
        if (allocated)
            continue;
        ++rep_.tx_conflict_staged;
        note(fmt("tx-staged block 0x%llx is not allocated", off));
        if (repair_ && slab && idx < slab->capacity() &&
            slab->blockOffset(idx) == off) {
            VLockGuard g(slab->arena->lock);
            slab->claimBlock(idx);
            ++rep_.repaired_tx_entries;
        }
    }
}

void
HeapAuditor::checkQuarantine()
{
    PmDevice &dev = a_.dev_;
    const NvSuperblock *sb = a_.sb_;

    unsigned count = sb->quarantine_count;
    if (count > kQuarantineSlots) {
        ++rep_.quarantine_bad;
        note(fmt("quarantine: count %llu exceeds capacity", count));
        count = kQuarantineSlots;
    }
    for (unsigned i = 0; i < kQuarantineSlots; ++i) {
        uint64_t q = sb->quarantine[i];
        if (i >= count) {
            if (q != 0) {
                ++rep_.quarantine_bad;
                note(fmt("quarantine: slot %llu beyond count not empty",
                         i));
            }
            continue;
        }
        if (q == 0 || q % kExtentAlign != 0 ||
            q < PmDevice::kRegionAlign || q + kSlabSize > dev.size()) {
            ++rep_.quarantine_bad;
            note(fmt("quarantine: bad offset 0x%llx", q));
            continue;
        }
        if (a_.slabOf(q) != nullptr) {
            ++rep_.quarantine_bad;
            note(fmt("quarantine: slab 0x%llx is simultaneously live",
                     q));
        }
    }
}

bool
HeapAuditor::lineIsFree(uint64_t line)
{
    PmDevice &dev = a_.dev_;
    const NvSuperblock *sb = a_.sb_;

    // Root area: superblock + region table are always live metadata;
    // the rest of the first alignment grain is never handed out.
    if (line < PmDevice::kRootSize)
        return false;
    if (line < PmDevice::kRegionAlign)
        return true;

    uint64_t wal_end =
        sb->wal_off + uint64_t(kMaxThreads) * kWalRingBytes;
    if (line >= sb->wal_off && line < wal_end) {
        // One WalEntry per line: occupied only if a valid entry sits
        // there. A torn/poisoned entry is scrubbable by definition —
        // replay would reject it as uncommitted anyway.
        const auto *e = static_cast<const WalEntry *>(dev.at(line));
        return (e->block_op & 3) == kWalNone || e->crc != walEntryCrc(*e);
    }

    if (a_.usesBookkeepingLog() && line >= sb->log_off &&
        line < sb->log_off + sb->log_bytes) {
        if (line < sb->log_off + kLogHeaderArea)
            return false; // log header
        uint64_t idx =
            (line - sb->log_off - kLogHeaderArea) / kLogChunkStride;
        uint64_t chunk =
            sb->log_off + kLogHeaderArea + idx * kLogChunkStride;
        return log_chunks_.count(chunk) == 0; // inactive chunk space
    }

    if (VSlab *slab = a_.slabOf(line)) {
        uint64_t so = slab->slabOffset();
        if (line < so + kSlabHeaderSize)
            return false; // header / bitmap / index table
        // Free iff no overlapping block is allocated, lent, or covered
        // by a live old-geometry block (the vbitmap folds all three).
        uint64_t rel = line - so - kSlabHeaderSize;
        unsigned first = unsigned(rel / slab->blockSize());
        unsigned last =
            unsigned((rel + kCacheLine - 1) / slab->blockSize());
        for (unsigned i = first; i <= last && i < slab->capacity(); ++i) {
            if (slab->vbitTest(i))
                return false;
        }
        return true;
    }

    // Large extents (activated slabs were handled above; an activated
    // is_slab snapshot here means a quarantined slab, which is leaked
    // and must not be rewritten).
    auto it = std::upper_bound(
        extents_.begin(), extents_.end(), line,
        [](uint64_t l, const ExtSnap &e) { return l < e.off; });
    if (it != extents_.begin()) {
        const ExtSnap &e = *(it - 1);
        if (line < e.off + e.size)
            return e.state != int(Veh::State::Activated);
    }

    // Region header areas hold live descriptors in in-place mode only.
    auto rit = std::upper_bound(
        regions_.begin(), regions_.end(),
        std::make_pair(line, ~uint64_t{0}));
    if (rit != regions_.begin()) {
        const auto &[roff, rsize] = *(rit - 1);
        if (line < roff + rsize && line < roff + kRegionHeaderSize)
            return a_.usesBookkeepingLog();
    }

    return true; // unmapped device space
}

void
HeapAuditor::scrubLine(uint64_t line)
{
    PmDevice &dev = a_.dev_;
    std::memset(dev.at(line), 0, kCacheLine);
    dev.persist(dev.at(line), kCacheLine, TimeKind::FlushMeta);
    dev.fence();
}

void
HeapAuditor::checkPoison()
{
    for (uint64_t line : a_.dev_.poisonedLineOffsets()) {
        if (lineIsFree(line)) {
            ++rep_.poisoned_free_lines;
            if (repair_) {
                scrubLine(line);
                ++rep_.scrubbed_lines;
            }
        } else {
            ++rep_.poisoned_live_lines;
            note(fmt("poisoned live line 0x%llx", line));
        }
    }
}

} // namespace nvalloc
