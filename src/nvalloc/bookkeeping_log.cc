#include "nvalloc/bookkeeping_log.h"

#include <cstring>

#include "common/bitmap_ops.h"
#include "common/logging.h"

namespace nvalloc {

BookkeepingLog::~BookkeepingLog()
{
    freeAllVChunks();
}

void
BookkeepingLog::freeAllVChunks()
{
    while (VChunk *vc = active_.first()) {
        active_.erase(vc);
        delete vc;
    }
    while (free_list_) {
        VChunk *vc = free_list_;
        free_list_ = vc->next_free;
        delete vc;
    }
    tail_ = nullptr;
    active_count_ = 0;
}

uint64_t
BookkeepingLog::chunkOffset(size_t index) const
{
    return region_off_ + kLogHeaderArea + index * kLogChunkStride;
}

bool
BookkeepingLog::attach(PmDevice *dev, uint64_t region_off,
                       size_t region_bytes, bool interleaved,
                       double gc_threshold, bool create, bool verify)
{
    dev_ = dev;
    region_off_ = region_off;
    region_bytes_ = region_bytes;
    verify_ = verify;
    gc_threshold_ = gc_threshold;
    header_ = static_cast<LogHeader *>(dev->at(region_off));
    max_chunks_ = (region_bytes - kLogHeaderArea) / kLogChunkStride;
    NV_ASSERT(max_chunks_ >= 4);

    unsigned stripes = interleaved ? kLogChunkStripes : 1;

    if (create) {
        header_->magic = kLogMagic;
        header_->head[0] = 0;
        header_->head[1] = 0;
        header_->alt = 0;
        header_->num_chunks = 0;
        // The stripe count is not stored here: it is part of the
        // allocator config the superblock persists, so attach() is
        // always called with the same interleaving the log was
        // written with.
        persistHeader();
        dev_->fence();
    } else {
        // The header is the log's single root: if it cannot be
        // trusted no chunk can be found, so a corrupt one means the
        // heap is unopenable rather than quarantinable. alt is outside
        // the crc (see layout.h) and gets a structural check instead;
        // head[] is bounds-checked by replay before being followed.
        if (header_->magic != kLogMagic)
            return false;
        if (verify_ && (dev_->isPoisoned(header_, sizeof(LogHeader)) ||
                        header_->crc != logHeaderCrc(*header_) ||
                        header_->alt > 1 ||
                        header_->num_chunks > max_chunks_))
            return false;
    }

    map_ = InterleaveMap::build(kLogEntriesPerChunk, 64, stripes);
    NV_ASSERT(map_.physicalSlots() <= kLogEntriesPerChunk);

    freeAllVChunks();
    carved_chunks_ = header_->num_chunks;
    live_entries_ = 0;
    next_id_ = 1;
    return true;
}

void
BookkeepingLog::persistLine(const void *addr, size_t len)
{
    dev_->persist(addr, len, TimeKind::FlushLog);
}

void
BookkeepingLog::persistHeader()
{
    header_->crc = logHeaderCrc(*header_);
    persistLine(header_, sizeof(LogHeader));
}

void
BookkeepingLog::persistChunkHeader(LogChunk *pc)
{
    // id/active/crc all live in the chunk's first cache line, so this
    // stays a single flush.
    pc->crc = logChunkCrc(*pc);
    persistLine(pc, offsetof(LogChunk, pad));
}

BookkeepingLog::VChunk *
BookkeepingLog::takeFreeChunk()
{
    if (!free_list_) {
        // Carve a never-used chunk from the region file.
        if (carved_chunks_ >= max_chunks_)
            return nullptr;
        VChunk *vc = new VChunk;
        vc->chunk_off = chunkOffset(carved_chunks_);
        ++carved_chunks_;
        header_->num_chunks = uint32_t(carved_chunks_);
        persistHeader();
        return vc;
    }
    VChunk *vc = free_list_;
    free_list_ = vc->next_free;
    vc->next_free = nullptr;
    return vc;
}

BookkeepingLog::VChunk *
BookkeepingLog::activateChunk(VChunk *list_tail, uint32_t list)
{
    VChunk *vc = takeFreeChunk();
    if (!vc)
        return nullptr;

    vc->id = next_id_++;
    vc->bitmap[0] = vc->bitmap[1] = 0;
    vc->live = 0;
    vc->next_slot = 0;
    std::memset(vc->owners, 0, sizeof(vc->owners));

    LogChunk *pc = chunkAt(*vc);
    std::memset(pc->entries, 0, kLogChunkDataBytes);
    pc->id = vc->id;
    pc->active = 1;
    pc->next = 0;
    pc->crc = logChunkCrc(*pc);
    // One sequential burst: the zeroed entry area plus the header.
    persistLine(pc, sizeof(LogChunk));

    if (list_tail) {
        // next is outside the chunk crc: one atomic word, and a torn
        // old value just means this chunk (which nothing depends on
        // until the fence below retires) stays unlinked.
        LogChunk *prev = chunkAt(*list_tail);
        prev->next = vc->chunk_off;
        persistLine(&prev->next, sizeof(uint64_t));
    } else {
        // One 8-byte word; the crc does not cover head[] (layout.h),
        // so a torn persist leaves either the old or the new link —
        // and the fence below retires it before any entry in this
        // chunk can commit, so the old link implies nothing depended
        // on the chunk yet.
        header_->head[list] = vc->chunk_off;
        persistLine(&header_->head[list], sizeof(uint64_t));
    }
    dev_->fence();

    active_.insert(vc, vc->id);
    ++active_count_;
    return vc;
}

void
BookkeepingLog::writeEntry(VChunk &vc, unsigned slot, uint64_t packed)
{
    LogChunk *pc = chunkAt(vc);
    unsigned phys = map_.physical(slot);
    pc->entries[phys] = packed;
    persistLine(&pc->entries[phys], sizeof(uint64_t));
    dev_->fence();
}

bool
BookkeepingLog::ensureTail()
{
    if (tail_ && tail_->next_slot < kLogEntriesPerChunk)
        return true;
    if (!free_list_)
        fastGc();

    // Slow GC is worth it only if it can actually shrink the chunk
    // count; a log genuinely full of live entries must keep carving.
    double used_after = double(active_count_ + 1) / double(max_chunks_);
    double live_frac = double(live_entries_) /
                       double(max_chunks_ * kLogEntriesPerChunk);
    if (used_after > gc_threshold_ && live_frac < gc_threshold_ * 0.75) {
        if (slowGc() && tail_ && tail_->next_slot < kLogEntriesPerChunk)
            return true;
    }

    VChunk *vc = activateChunk(tail_, header_->alt);
    if (!vc) {
        if (slowGc() && tail_ && tail_->next_slot < kLogEntriesPerChunk)
            return true;
        vc = activateChunk(tail_, header_->alt);
        if (!vc)
            return false; // log region exhausted; caller degrades
    }
    tail_ = vc;
    return true;
}

LogEntryRef
BookkeepingLog::append(LogType type, uint64_t ext_off, uint64_t size,
                       void *owner)
{
    if (!ensureTail())
        return LogEntryRef{};

    VChunk &vc = *tail_;
    unsigned slot = vc.next_slot++;
    uint64_t packed = logEntryPack(type, ext_off >> 12, size);
    writeEntry(vc, slot, packed);
    bitmapSet(vc.bitmap, slot);
    ++vc.live;
    vc.owners[slot] = owner;
    if (type != kLogTombstone)
        ++live_entries_;
    if (tel_)
        tel_->add(StatCounter::LogAppend);
    return LogEntryRef{vc.id, slot};
}

void
BookkeepingLog::tombstone(LogEntryRef target)
{
    NV_ASSERT(target.valid());
    VChunk *vc = active_.find(target.chunk_id);
    NV_ASSERT(vc && bitmapTest(vc->bitmap, target.slot));

    // Invalidate the target in its vchunk (volatile), then journal the
    // deletion persistently for post-crash replay.
    bitmapClear(vc->bitmap, target.slot);
    --vc->live;
    vc->owners[target.slot] = nullptr;
    --live_entries_;
    if (tel_)
        tel_->add(StatCounter::LogTombstone);

    // A failed tombstone append (log region completely full) only
    // means the deletion is not journaled: after a crash the extent
    // resurrects as allocated — a bounded leak, never corruption — so
    // the free itself still proceeds.
    if (!append(kLogTombstone, uint64_t(target.chunk_id) << 12,
                target.slot, nullptr)
             .valid())
        NV_WARN("bookkeeping log full; free not journaled (leak on crash)");
}

void
BookkeepingLog::setOwner(LogEntryRef ref, void *owner)
{
    VChunk *vc = active_.find(ref.chunk_id);
    NV_ASSERT(vc != nullptr);
    vc->owners[ref.slot] = owner;
}

void
BookkeepingLog::fastGc()
{
    const uint64_t t0 = VClock::now();
    if (tel_) {
        tel_->add(StatCounter::LogFastGc);
        tel_->event(TraceOp::LogGc, 0);
    }

    // Scan vchunks; empty ones leave the active list. No PM reads —
    // only the deactivation flag and the predecessor's next pointer
    // are written (paper: "its overhead is trivial").
    VChunk *prev = nullptr;
    VChunk *vc = active_.first();
    while (vc) {
        VChunk *next = active_.next(vc);
        if (vc->live == 0 && vc != tail_ && vc->next_slot > 0) {
            releaseChunk(vc, prev);
        } else {
            prev = vc;
        }
        vc = next;
    }
    if (tel_)
        tel_->add(StatCounter::LogGcNs, VClock::now() - t0);
}

void
BookkeepingLog::releaseChunk(VChunk *vc, VChunk *prev)
{
    LogChunk *pc = chunkAt(*vc);

    // Unlink first, in its own fenced epoch: next/head live outside
    // the crcs (layout.h), so the unlink is one atomic word. Only then
    // deactivate the now-unreachable chunk — deactivation rewrites its
    // crc across two words, and a torn persist of a chunk still in the
    // chain would reject it at replay and truncate the chain behind
    // it, dropping committed entries.
    if (prev) {
        LogChunk *pp = chunkAt(*prev);
        pp->next = pc->next;
        persistLine(&pp->next, sizeof(uint64_t));
    } else {
        header_->head[header_->alt] = pc->next;
        persistLine(&header_->head[header_->alt], sizeof(uint64_t));
    }
    dev_->fence();

    pc->active = 0;
    persistChunkHeader(pc);
    dev_->fence();

    active_.erase(vc);
    --active_count_;
    vc->next_free = free_list_;
    free_list_ = vc;
}

bool
BookkeepingLog::slowGc()
{
    // The copy pass relocates owner refs as it goes and cannot be
    // unwound, so prove the new list fits before touching anything:
    // every surviving entry needs a slot, and chunks come from the
    // free list or from carving.
    size_t needed = (live_entries_ + kLogEntriesPerChunk - 1) /
                    kLogEntriesPerChunk;
    size_t avail = max_chunks_ - carved_chunks_;
    for (VChunk *vc = free_list_; vc; vc = vc->next_free)
        ++avail;
    if (needed > avail)
        return false;

    const uint64_t t0 = VClock::now();
    if (tel_) {
        tel_->add(StatCounter::LogSlowGc);
        tel_->event(TraceOp::LogGc, 1);
    }

    // Collect the surviving entries (normal/slab with a set bit) in
    // id/slot order together with their owners.
    struct Live
    {
        uint64_t packed;
        void *owner;
    };
    std::vector<Live> survivors;
    survivors.reserve(live_entries_);
    std::vector<VChunk *> old_chunks;
    for (VChunk *vc = active_.first(); vc; vc = active_.next(vc)) {
        old_chunks.push_back(vc);
        LogChunk *pc = chunkAt(*vc);
        for (unsigned slot = 0; slot < vc->next_slot; ++slot) {
            if (!bitmapTest(vc->bitmap, slot))
                continue;
            uint64_t packed = pc->entries[map_.physical(slot)];
            if (logEntryType(packed) == kLogTombstone)
                continue; // dropped together with its target
            survivors.push_back({packed, vc->owners[slot]});
        }
    }

    // Build list_new under the alternate head. alt itself is not
    // touched until the chain is complete: every chunk activation
    // below persists header words, and flipping alt in DRAM first
    // would let those persists publish a half-built chain — a crash
    // mid-copy would then recover from it and silently drop every
    // entry not yet copied.
    uint32_t new_alt = 1 - header_->alt;
    VChunk *new_tail = nullptr;
    size_t copied = 0;
    live_entries_ = 0;
    for (const Live &e : survivors) {
        if (!new_tail || new_tail->next_slot == kLogEntriesPerChunk) {
            VChunk *vc = activateChunk(new_tail, new_alt);
            NV_ASSERT(vc != nullptr); // guaranteed by the precheck
            new_tail = vc;
        }
        unsigned slot = new_tail->next_slot++;
        writeEntry(*new_tail, slot, e.packed);
        bitmapSet(new_tail->bitmap, slot);
        ++new_tail->live;
        new_tail->owners[slot] = e.owner;
        ++live_entries_;
        ++copied;
        if (e.owner && relocate_)
            relocate_(e.owner, LogEntryRef{new_tail->id, slot});
    }
    if (tel_)
        tel_->add(StatCounter::LogEntriesCopied, copied);

    // Publish: one persistent word flip moves recovery to list_new.
    // All of list_new is durable (each activation and entry write was
    // fenced), and alt lives outside the header crc in its own 8-byte
    // word, so this update is atomic under word tearing: recovery sees
    // either the complete old list or the complete new one.
    header_->alt = new_alt;
    persistLine(&header_->alt, sizeof(uint32_t));
    dev_->fence();

    // Recycle list_old.
    for (VChunk *vc : old_chunks) {
        LogChunk *pc = chunkAt(*vc);
        pc->active = 0;
        persistChunkHeader(pc);
        active_.erase(vc);
        --active_count_;
        vc->next_free = free_list_;
        free_list_ = vc;
    }
    dev_->fence();
    tail_ = new_tail;
    if (tel_)
        tel_->add(StatCounter::LogGcNs, VClock::now() - t0);
    return true;
}

BookkeepingLog::ReplayRejects
BookkeepingLog::replay(const std::function<void(LogType, uint64_t,
                                                uint64_t, LogEntryRef)> &fn)
{
    ReplayRejects rejects;
    NV_ASSERT(active_.empty());

    // Pass 1: adopt the published chain, rebuild bitmaps, apply
    // tombstones.
    // head[] and every `next` live outside the crcs (layout.h), so
    // validate the chain offsets structurally before dereferencing
    // them: a torn or corrupted link must end the chain, not walk wild
    // memory or loop back to a chunk already adopted.
    uint64_t off = header_->head[header_->alt];
    uint32_t max_id = 0;
    std::vector<VChunk *> chain;
    while (off) {
        if (!logChunkOffValid(region_off_, region_bytes_, off)) {
            ++rejects.chunks;
            break;
        }
        // Reading one chunk (17 lines) is a short sequential burst.
        VClock::advance(300, TimeKind::PmRead);
        LogChunk *pc = static_cast<LogChunk *>(dev_->at(off));
        if (verify_) {
            // Header crc over one cached line (~a few cycles, charged
            // with the chunk read above). A corrupt or poisoned chunk
            // header ends the chain: everything behind it is
            // unreachable anyway, and adopting a garbage next pointer
            // would walk wild offsets.
            if (dev_->isPoisoned(pc, kLogHeaderArea) ||
                pc->crc != logChunkCrc(*pc)) {
                ++rejects.chunks;
                break;
            }
        }
        if (VChunk *seen = active_.find(pc->id);
            seen && seen->chunk_off == off) {
            ++rejects.chunks; // a cycle: this chunk is already adopted
            break;
        }
        VChunk *vc = new VChunk;
        vc->chunk_off = off;
        vc->id = pc->id;
        active_.insert(vc, vc->id);
        ++active_count_;
        chain.push_back(vc);
        if (vc->id > max_id)
            max_id = vc->id;

        for (unsigned slot = 0; slot < kLogEntriesPerChunk; ++slot) {
            unsigned phys = map_.physical(slot);
            uint64_t packed = pc->entries[phys];
            if (verify_) {
                // ~1 ns of crc math per entry; a zeroed slot fails the
                // fold too (its csum is 0xa5), so "first bad entry"
                // doubles as "end of the densely-appended chunk". A
                // nonzero bad word is a torn append: the entry never
                // committed, drop it and everything after.
                VClock::advance(1, TimeKind::PmRead);
                if (dev_->isPoisoned(&pc->entries[phys], 8) ||
                    !logEntryChecksumOk(packed)) {
                    if (packed != 0)
                        ++rejects.entries;
                    break;
                }
            } else if (packed == 0) {
                break; // appends are dense in logical order
            }
            vc->next_slot = slot + 1;
            LogType type = logEntryType(packed);
            if (type == kLogTombstone) {
                uint32_t tgt_chunk = uint32_t(logEntryAddr(packed));
                uint32_t tgt_slot = uint32_t(logEntrySize(packed));
                VChunk *tgt = active_.find(tgt_chunk);
                // The target chunk may have been freed by fast GC
                // after the tombstone was written; then nothing to do.
                if (tgt && bitmapTest(tgt->bitmap, tgt_slot)) {
                    bitmapClear(tgt->bitmap, tgt_slot);
                    --tgt->live;
                }
                bitmapSet(vc->bitmap, slot);
                ++vc->live;
            } else {
                bitmapSet(vc->bitmap, slot);
                ++vc->live;
            }
        }
        off = pc->next;
    }
    next_id_ = max_id + 1;
    tail_ = chain.empty() ? nullptr : chain.back();

    // A crash can commit a chunk's chain link while dropping the
    // num_chunks bump of the same epoch. The chain is authoritative:
    // raise the carve count over every adopted chunk so future carving
    // can never hand out a chunk that is already linked.
    for (VChunk *vc : chain) {
        size_t idx =
            (vc->chunk_off - region_off_ - kLogHeaderArea) / kLogChunkStride;
        if (idx >= carved_chunks_)
            carved_chunks_ = idx + 1;
    }
    if (carved_chunks_ != header_->num_chunks) {
        header_->num_chunks = uint32_t(carved_chunks_);
        persistHeader();
        dev_->fence();
    }

    // Unreachable carved chunks (e.g. an unpublished list_new from a
    // crashed slow GC) go back to the free pool.
    for (size_t i = 0; i < carved_chunks_; ++i) {
        uint64_t coff = chunkOffset(i);
        bool reachable = false;
        for (VChunk *vc : chain) {
            if (vc->chunk_off == coff) {
                reachable = true;
                break;
            }
        }
        if (!reachable) {
            VChunk *vc = new VChunk;
            vc->chunk_off = coff;
            vc->next_free = free_list_;
            free_list_ = vc;
        }
    }

    // Pass 2: surface the live payload entries in order.
    live_entries_ = 0;
    for (VChunk *vc : chain) {
        LogChunk *pc = chunkAt(*vc);
        for (unsigned slot = 0; slot < vc->next_slot; ++slot) {
            if (!bitmapTest(vc->bitmap, slot))
                continue;
            uint64_t packed = pc->entries[map_.physical(slot)];
            LogType type = logEntryType(packed);
            if (type == kLogTombstone)
                continue;
            ++live_entries_;
            fn(type, logEntryAddr(packed) << 12, logEntrySize(packed),
               LogEntryRef{vc->id, slot});
        }
    }
    return rejects;
}

} // namespace nvalloc
