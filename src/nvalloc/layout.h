/**
 * @file
 * On-media (persistent) structures of NVAlloc.
 *
 * Everything in this header lives inside the emulated PM device and
 * must stay valid across crashes; all cross-structure references are
 * device offsets (or OffsetPtr), never raw pointers. Volatile mirrors
 * (vslab, vchunk, VEH) live in ordinary DRAM structs elsewhere.
 *
 * Heap geometry:
 *  - the device root area holds the NvSuperblock, then the region
 *    table (kRegionTableOffset, regionTable());
 *  - the heap grows in 4 MB regions; each region reserves its first
 *    64 KB as a header area holding in-place extent descriptors (used
 *    by the Base configuration; the log-structured configuration
 *    leaves it idle so both modes see identical data layout);
 *  - slabs are 64 KB extents whose first 4 KB is the SlabHeader;
 *  - a WAL region provides one 1 KB ring per thread slot;
 *  - the bookkeeping log region holds LogChunks of 128 8-byte entries.
 */

#ifndef NVALLOC_NVALLOC_LAYOUT_H
#define NVALLOC_NVALLOC_LAYOUT_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/checksum.h"
#include "common/size_classes.h"
#include "pm/pm_device.h"

namespace nvalloc {

constexpr uint64_t kSuperMagic = 0x4e56414c4c4f4321ULL; // "NVALLOC!"
constexpr uint32_t kSlabMagic = 0x534c4142;             // "SLAB"
constexpr uint64_t kLogMagic = 0x4e564c4f47484452ULL;   // "NVLOGHDR"

/** On-media format version. 2 added checksums on every persistent
 *  header (WAL entries, log chunks, slab headers, superblock) and the
 *  superblock quarantine list. 3 added the transaction fields of the
 *  WAL entry (tx_id/tx_mark under the crc) and the kWalTxData op. */
constexpr uint32_t kSuperVersion = 3;

constexpr size_t kRegionSize = 4 * 1024 * 1024;  //!< heap growth grain
constexpr size_t kRegionHeaderSize = 64 * 1024;  //!< in-place desc area
constexpr size_t kLargeMax = 2 * 1024 * 1024;    //!< above: direct map
constexpr size_t kExtentAlign = 16 * 1024;       //!< smallest extent

constexpr size_t kSlabHeaderSize = 4096;
constexpr unsigned kMaxSlabBlocks =
    (kSlabSize - kSlabHeaderSize) / 8; // 7680, smallest class is 8 B
constexpr size_t kSlabBitmapBytes = 2048; // fits 32 padded stripes
constexpr unsigned kIndexTableCap = 960;  // morph index_table entries

constexpr unsigned kMaxArenas = 64;
constexpr unsigned kMaxThreads = 128;
constexpr unsigned kNumGcRoots = 8;

/** Arena lifecycle flag (paper §4.4). */
enum class ArenaState : uint32_t
{
    Idle = 0,
    Running = 1,
    NormalShutdown = 2,
    Recovering = 3,
};

/**
 * Persistent slab header (paper §2.2, §5.2 / Fig. 5).
 *
 * flag encodes the morph step: 0 = regular slab (or slab_in after all
 * three steps — old_* fields are then live iff index_count > 0 is
 * still being tracked by the volatile cnt_slab), 1..3 = morph in
 * progress, crashed mid-transformation ⇒ undo (flag ≤ 2) or roll
 * forward (flag 3).
 *
 * Word-tearing discipline: a power cut may persist any subset of this
 * line's 8-byte words (x86 atomicity floor), so no morph step may need
 * two words of the same epoch to land together. size_class shares its
 * word with flag (they change together in step 3 and are therefore
 * atomic), the staged old/new geometry fields are fenced before the
 * step-3 epoch starts, and the crc covers only the adoption-trusted
 * quintuple so steps 1/2 and finishMorph never touch a crc-covered
 * word. Recovery repairs a torn step 3 from the staging fields.
 */
struct SlabHeader
{
    uint32_t magic;
    uint16_t size_class;
    uint16_t flag;
    uint32_t data_offset;      //!< slab-relative start of blocks
    uint16_t capacity;         //!< number of blocks
    uint16_t stripes;          //!< bitmap stripes in use
    uint16_t old_size_class;
    uint16_t old_data_offset_k; //!< old data offset (always header size)
    uint16_t index_count;      //!< live entries in index_table
    uint16_t old_capacity;
    uint32_t crc;              //!< crc32c, see slabGeometryCrc()
    uint16_t old_stripes;      //!< staged: pre-morph stripe count
    uint16_t new_size_class;   //!< staged: morph target class
    uint16_t new_stripes;      //!< staged: morph target stripes
    uint8_t pad0[30];          //!< pad fixed fields to one cache line

    /** Interleaved allocation bitmap; bit = 1 ⇒ block allocated. */
    uint8_t bitmap[kSlabBitmapBytes];

    /**
     * Morph index table (paper Fig. 5): entry i describes the i-th
     * surviving block_before: bits [14:0] its block index in the old
     * geometry, bit 15 its state (1 = allocated, 0 = freed since).
     */
    uint16_t index_table[kIndexTableCap];

    uint8_t pad1[kSlabHeaderSize - 64 - kSlabBitmapBytes -
                 kIndexTableCap * 2];
};

static_assert(sizeof(SlabHeader) == kSlabHeaderSize);

/**
 * Checksum of the adoption-trusted geometry quintuple — magic,
 * size_class, data_offset, capacity, stripes — with flag zeroed.
 *
 * Deliberately excluded:
 *  - the bitmap: bits are flushed one line at a time on the allocation
 *    fast path, and WAL replay already covers a torn bit;
 *  - flag and the morph staging fields (old_*, new_*, index_table):
 *    they change under the flag-step undo/redo protocol, and covering
 *    them would make every setFlag a multi-word update that 8-byte
 *    tearing could split into a false corruption. With this scope,
 *    only morph step 3 changes a crc-covered word, and recovery can
 *    validate a torn step 3 against the staged old/new quintuples
 *    (headerLooksValid) and repair it from the same staging.
 */
inline uint32_t
slabGeometryCrc(uint16_t cls, uint16_t capacity, uint16_t stripes)
{
    const struct
    {
        uint32_t magic;
        uint16_t size_class;
        uint16_t flag;
        uint32_t data_offset;
        uint16_t capacity;
        uint16_t stripes;
    } q{kSlabMagic, cls, 0, uint32_t(kSlabHeaderSize), capacity, stripes};
    static_assert(sizeof(q) == 16);
    return crc32(&q, sizeof(q));
}

inline uint32_t
slabHeaderCrc(const SlabHeader &h)
{
    return slabGeometryCrc(h.size_class, h.capacity, h.stripes);
}

constexpr uint16_t kIndexAllocated = 0x8000;
constexpr uint16_t kIndexBlockMask = 0x7fff;

/**
 * In-place extent descriptor (Base configuration, §3.3): one 64 B slot
 * per extent in the owning region's header area. Random in-place
 * updates of these slots are exactly the access pattern Fig. 2 shows.
 */
struct ExtentDesc
{
    uint64_t offset;   //!< device offset of the extent (0 = slot free)
    uint64_t size;
    uint32_t state;    //!< 1 = allocated, 2 = free (reclaimed)
    uint32_t is_slab;
    uint8_t pad[40];
};

static_assert(sizeof(ExtentDesc) == 64);

constexpr unsigned kDescsPerRegion = kRegionHeaderSize / sizeof(ExtentDesc);

/**
 * WAL entry (one cache line): journal of one in-flight malloc/free.
 * Only the newest entry of a ring can describe an incomplete operation
 * (threads are synchronous), so appending entry k+1 implicitly commits
 * entry k; replay inspects the highest-sequence entry and decides
 * completion by checking whether the user's attach word holds the
 * block offset.
 *
 * The crc covers the payload words, including the transaction tag. A
 * torn or poisoned entry fails verification and replay treats it as
 * uncommitted: the operation it described never finished, so it is
 * undone, never replayed forward from garbage.
 *
 * Transactions (DESIGN.md §11) reuse the same entries: a tx op carries
 * the owning transaction id in tx_id (0 = non-transactional, the
 * entire fast path), and the tx layer's control records — the single
 * commit record, and the abort record written after a live rollback —
 * are entries with op kWalTxData and tx_mark kWalTxCommit/kWalTxAbort.
 * kWalTxData entries with tx_mark kWalTxOp journal an 8-byte undo/redo
 * word write: block_op holds the target offset, where_off the old
 * (undo) value and size the new (redo) value.
 *
 * Sized to exactly one line so an entry can never straddle two lines:
 * the append stays a single flush and a torn persist cannot split one
 * entry across independently-landing lines.
 */
struct WalEntry
{
    uint64_t block_op;  //!< [63:2] block device offset, [1:0] op
    uint64_t seq;
    uint64_t where_off; //!< attach word's device offset (kWalNoWhere
                        //!< if the attach target is volatile); the old
                        //!< word value for kWalTxData writes
    uint64_t size;      //!< request size; the new word value for
                        //!< kWalTxData writes
    uint32_t tx_id;     //!< owning transaction (0 = not transactional)
    uint32_t tx_mark;   //!< WalTxMark role of a tx-tagged entry
    uint64_t crc;       //!< crc32c of the 40 payload bytes above
    uint8_t pad[kCacheLine - 48];
};

static_assert(sizeof(WalEntry) == kCacheLine);

inline uint32_t
walEntryCrc(const WalEntry &e)
{
    return crc32(&e, offsetof(WalEntry, crc));
}

/** The intact-entry rule replay and the auditor share: a used slot's
 *  entry is trusted only when its line is not media-poisoned and its
 *  crc matches. */
inline bool
walEntryIntact(const PmDevice &dev, const WalEntry &e)
{
    return !dev.isPoisoned(&e, sizeof(e)) && e.crc == walEntryCrc(e);
}

enum WalOp : uint64_t
{
    kWalNone = 0,
    kWalAlloc = 1,
    kWalFree = 2,
    /** Transaction-layer entry: an undo/redo word write (tx_mark
     *  kWalTxOp) or a commit/abort control record. Never appears with
     *  tx_id == 0. */
    kWalTxData = 3,
};

/** Role of a tx-tagged WAL entry (tx_id != 0). */
enum WalTxMark : uint32_t
{
    kWalTxNone = 0,   //!< not transactional (tx_id == 0)
    kWalTxOp = 1,     //!< one alloc/free/write op of transaction tx_id
    kWalTxCommit = 2, //!< the commit record: tx_id is durable
    kWalTxAbort = 3,  //!< rollback of tx_id completed before the crash
    /** The commit's apply phase completed before the crash: recovery
     *  must not redo the run. Without this seal, the redo of an
     *  already-applied transaction could rewind a word (a KV bucket
     *  head, say) that a *later* committed transaction wrote — the
     *  same reason the abort record exempts a completed rollback from
     *  being undone again. */
    kWalTxApplied = 4,
};

constexpr uint64_t kWalNoWhere = ~uint64_t{0};

// 32 logical entries; the physical ring is 4 KB because stripe padding
// can inflate the footprint (S * ceil(32/S) physical slots, at most 64
// for any stripe count <= 32).
constexpr unsigned kWalRingEntries = 32;
constexpr size_t kWalRingBytes = 4096;

/**
 * Transaction size bound: ops per transaction, chosen so a tx's whole
 * WAL run — every op entry plus the commit/abort record — fits the
 * owning thread's ring without wrapping onto itself. The run is the
 * only rollback record there is, so an overwrite would be data loss.
 */
constexpr unsigned kTxMaxOps = kWalRingEntries - 2;

/** Bookkeeping log entry (8 B; paper §5.3): [63:62] type,
 *  [61:54] fold checksum, [53:26] addr in 4 KB units (covers a 1 TB
 *  device), [25:0] size in bytes.
 *  Tombstones reuse addr = target chunk id, size = target slot.
 *
 *  The checksum rides inside the word, so an entry append is still a
 *  single atomic 8-byte store. A zeroed word never verifies (the fold
 *  of 0 is 0xa5), which makes "first bad entry" double as "end of the
 *  densely-appended chunk" during replay. */
enum LogType : uint64_t
{
    kLogFree = 0,
    kLogNormal = 1,
    kLogSlab = 2,
    kLogTombstone = 3,
};

constexpr unsigned kLogCsumShift = 54;
constexpr uint64_t kLogCsumMask = 0xffULL << kLogCsumShift;

constexpr uint64_t
logEntryPack(LogType type, uint64_t addr_or_chunk, uint64_t size_or_slot)
{
    uint64_t raw = (uint64_t(type) << 62) |
                   ((addr_or_chunk & 0xfffffffULL) << 26) |
                   (size_or_slot & 0x3ffffffULL);
    return raw | (uint64_t(xorFold8(raw)) << kLogCsumShift);
}

constexpr LogType
logEntryType(uint64_t e)
{
    return LogType(e >> 62);
}

constexpr uint64_t
logEntryAddr(uint64_t e)
{
    return (e >> 26) & 0xfffffffULL;
}

constexpr uint64_t
logEntrySize(uint64_t e)
{
    return e & 0x3ffffffULL;
}

constexpr bool
logEntryChecksumOk(uint64_t e)
{
    return xorFold8(e & ~kLogCsumMask) ==
           uint8_t((e & kLogCsumMask) >> kLogCsumShift);
}

constexpr unsigned kLogEntriesPerChunk = 128;

/** Stripe count used inside log chunks when interleaving is on: 8 is
 *  the largest count whose padding still fits 128 entries in 1 KB and
 *  it pushes the same-line reuse distance to 7 (> reflush window). */
constexpr unsigned kLogChunkStripes = 8;
constexpr size_t kLogChunkDataBytes = kLogEntriesPerChunk * 8; // 1 KB

/**
 * Persistent log chunk: one header line + 1 KB of entries.
 *
 * Word-tearing discipline (cf. LogHeader): `next` is rewritten in
 * place when a successor chunk is linked, so it sits outside the crc —
 * covering it would pair that single-word update with a crc update in
 * another word, and a torn persist of the pair would invalidate this
 * chunk and its already-committed entries. A torn `next` on its own is
 * old-or-new by word atomicity; replay bounds-checks it before
 * following, and the successor validates itself with its own crc.
 */
struct LogChunk
{
    uint32_t id;
    uint32_t active;
    uint32_t crc;       //!< crc32c of {id, active}
    uint32_t pad0;
    uint64_t next;      //!< device offset of next active chunk (0 = end)
    uint8_t pad[40];
    uint64_t entries[kLogEntriesPerChunk];
};

static_assert(sizeof(LogChunk) == 64 + kLogChunkDataBytes);

inline uint32_t
logChunkCrc(const LogChunk &c)
{
    return crc32(&c, offsetof(LogChunk, crc));
}

/**
 * Persistent log file header (paper Fig. 8).
 *
 * The field order enforces a word-tearing discipline: under 8-byte
 * persist atomicity, every legitimate header mutation dirties exactly
 * one 8-byte word, so a crash can never leave the header in a state
 * that existed on neither side of the update.
 *
 *  - carving a chunk bumps num_chunks, which shares its word with the
 *    crc — the count and the checksum commit or tear together;
 *  - linking a list's first chunk rewrites one head[] word (fenced
 *    before anything that depends on the chunk);
 *  - the slow-GC publish flips the alt word alone.
 *
 * head[] and alt are deliberately outside the crc: including them
 * would pair each of those single-word updates with a crc update in a
 * different word, and a torn persist could then split payload from
 * checksum and turn a survivable crash into a fatal "corrupt header".
 * They are validated structurally instead — alt must be 0/1, and
 * replay bounds-checks every chain offset before following it.
 */
struct LogHeader
{
    uint64_t magic;
    uint32_t num_chunks; //!< chunks ever carved from the file
    uint32_t crc;        //!< crc32c of the 12 bytes above
    uint64_t head[2];    //!< offsets of the two chunk-list heads
    uint32_t alt;        //!< which head[] is live
    uint32_t pad;
};

inline uint32_t
logHeaderCrc(const LogHeader &h)
{
    return crc32(&h, offsetof(LogHeader, crc));
}

/** Log-region geometry: a 64 B header line, then LogChunks back to
 *  back. head[] and `next` sit outside every crc, so replay and the
 *  auditor bound each link with logChunkOffValid before following,
 *  and end the chain at a chunk they already visited. */
constexpr size_t kLogHeaderArea = 64;
constexpr size_t kLogChunkStride = sizeof(LogChunk); // 1088 B

constexpr bool
logChunkOffValid(uint64_t log_off, uint64_t log_bytes, uint64_t off)
{
    return off >= log_off + kLogHeaderArea &&
           off + kLogChunkStride <= log_off + log_bytes &&
           (off - log_off - kLogHeaderArea) % kLogChunkStride == 0;
}

/**
 * Region-table entry codec. The table (regionTable() below) holds one
 * packed word per live region: offset in 4 KB units in the high bits,
 * total size in 64 KB units in the low 28. Only the large allocator's
 * openRegion/closeRegion write it; the heap auditor decodes it here
 * independently of the allocator's volatile state.
 */
constexpr uint64_t
packRegionEntry(uint64_t off, uint64_t size)
{
    return ((off >> 12) << 28) | (size >> 16);
}

constexpr uint64_t
regionEntryOff(uint64_t e)
{
    return (e >> 28) << 12;
}

constexpr uint64_t
regionEntrySize(uint64_t e)
{
    return (e & ((uint64_t{1} << 28) - 1)) << 16;
}

/** The rule for a nonzero region-table word: an aligned, non-empty
 *  region past the root area and inside the device. The table lies
 *  outside every crc, so recovery refuses to open over a word that
 *  breaks it, and the auditor reports one. */
constexpr bool
regionEntryValid(uint64_t e, uint64_t dev_size)
{
    uint64_t off = regionEntryOff(e), size = regionEntrySize(e);
    return off % PmDevice::kRegionAlign == 0 && size != 0 &&
           off >= PmDevice::kRegionAlign && off + size <= dev_size;
}

/** Region-table words are published and retired under the large
 *  allocator's lock but read lock-free by the patrol scrubber, so every
 *  access that can race is a relaxed atomic one. */
inline uint64_t
loadRegionWord(const uint64_t &w)
{
    return std::atomic_ref<const uint64_t>(w).load(
        std::memory_order_relaxed);
}

inline void
storeRegionWord(uint64_t &w, uint64_t e)
{
    std::atomic_ref<uint64_t>(w).store(e, std::memory_order_relaxed);
}

/** Slabs recovery refused to adopt (bad header after a crash +
 *  media fault). Their space is leaked deliberately — quarantined —
 *  instead of aborting the whole heap. */
constexpr unsigned kQuarantineSlots = 12;

/** Superblock anchored in the device root area. Must stay within
 *  kRegionTableOffset bytes: the region table follows it. */
struct NvSuperblock
{
    uint64_t magic;
    uint32_t version;
    uint32_t num_arenas;
    uint32_t stripes;
    uint32_t consistency; //!< 0 = LOG, 1 = GC

    uint64_t log_off;
    uint64_t log_bytes;
    uint64_t wal_off;     //!< kMaxThreads rings of kWalRingBytes

    uint64_t gc_roots[kNumGcRoots]; //!< device offsets, 0 = unset

    uint32_t arena_state[kMaxArenas];

    /** Device offsets of quarantined slabs (0 = empty slot). */
    uint64_t quarantine[kQuarantineSlots];
    uint32_t quarantine_count;

    /** crc32c of the config fields [8, 48): version..wal_off. The
     *  magic is excluded (it is published after the crc is in place);
     *  runtime-mutable fields (gc_roots, arena_state, quarantine) are
     *  excluded and protected by their own update protocols. */
    uint32_t sb_crc;

    /**
     * Hardening layout flags (hardening.h): bit 0 = per-block redzone
     * canaries are active on this image, i.e. the last 8 bytes of
     * every small block belong to the allocator, not the application.
     * Outside the crc so pre-hardening images (where this word is
     * zero — canaries off) verify unchanged; written once at
     * createHeap and adopted verbatim by every reopen.
     */
    uint32_t hardening_flags;
};

constexpr uint32_t kHardeningFlagCanaries = 1u << 0;

/** The region table fills the root area after the superblock:
 *  kRegionTableSlots words from root offset kRegionTableOffset, one
 *  slot per live 4 MB region or direct mapping (448 slots, 1.75 GB of
 *  4 MB regions). */
constexpr uint64_t kRegionTableOffset = 512;
constexpr unsigned kRegionTableSlots =
    unsigned((PmDevice::kRootSize - kRegionTableOffset) / sizeof(uint64_t));
static_assert(sizeof(NvSuperblock) <= kRegionTableOffset);

/** The device's region table (kRegionTableSlots words). */
inline uint64_t *
regionTable(const PmDevice &dev)
{
    return reinterpret_cast<uint64_t *>(static_cast<char *>(dev.root()) +
                                        kRegionTableOffset);
}

inline uint32_t
superblockCrc(const NvSuperblock &sb)
{
    return crc32(reinterpret_cast<const char *>(&sb) + 8, 40);
}

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_LAYOUT_H
