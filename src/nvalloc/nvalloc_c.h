/**
 * @file
 * The paper's C-style programming interface (§4.1), as a veneer over
 * the C++ API:
 *
 *   nvalloc_init / nvalloc_exit
 *   nvalloc_malloc_to / nvalloc_free_from
 *
 * Thread contexts are managed implicitly: each calling thread is
 * attached on first use and detached when the instance exits. The
 * attach target is a pointer to a persistent uint64_t word inside the
 * heap (offset-based, so structures survive remapping).
 */

#ifndef NVALLOC_NVALLOC_NVALLOC_C_H
#define NVALLOC_NVALLOC_NVALLOC_C_H

#include <cstddef>
#include <cstdint>

namespace nvalloc {

class PmDevice;
class NvAlloc;
struct ThreadCtx;

struct NvInstance; //!< opaque

/** Options for the original nvalloc_init() entry point (deprecated —
 *  unversioned, so it can never grow; new code uses nvalloc_options
 *  and nvalloc_open_ex below). */
struct NvAllocOptions
{
    bool gc_variant = false;   //!< NVAlloc-GC instead of NVAlloc-LOG
    unsigned bit_stripes = 6;
    bool slab_morphing = true;
};

/** Current nvalloc_options layout revision. */
#define NVALLOC_OPTIONS_VERSION 4u

/** Values accepted in nvalloc_options.fastpath. Both open the
 *  lock-free engine (per-core regions + atomic bitfields); the locked
 *  mode is retired and kept only so v4 callers still validate. */
enum NvFastPathMode
{
    NVALLOC_FASTPATH_LOCKED = 0,
    NVALLOC_FASTPATH_LOCKFREE = 1,
};

/** Hardening policies for nvalloc_options.hardening_policy: what to
 *  do after a corruption (double free, canary stomp, ...) is
 *  detected. */
enum NvHardeningPolicy
{
    NVALLOC_HARDEN_REPORT = 0,     //!< count, report, contain (leak)
    NVALLOC_HARDEN_QUARANTINE = 1, //!< also delay reuse via the FIFO
    NVALLOC_HARDEN_ABORT = 2,      //!< abort() on first detection
};

/** Maintenance modes for nvalloc_options.maintenance_mode. The
 *  manual mode is retired and kept only so existing callers still
 *  validate: it opens the default mode, which already runs a slice
 *  per "step" (and on exhaustion) and nothing on its own. */
enum NvMaintenanceMode
{
    NVALLOC_MAINT_OFF = 0,    //!< no background thread (default)
    NVALLOC_MAINT_MANUAL = 1, //!< retired: opens NVALLOC_MAINT_OFF
    NVALLOC_MAINT_THREAD = 2, //!< dedicated background thread
};

/**
 * Versioned open options for nvalloc_open_ex(). Always initialise
 * with nvalloc_options_init() (which stamps `version`) and then
 * override fields; a caller compiled against an older revision of
 * this header passes its smaller version number and the library only
 * reads the fields that revision defined.
 */
struct nvalloc_options
{
    uint32_t version;       //!< NVALLOC_OPTIONS_VERSION at build time
    /* -- version 1 fields ------------------------------------------ */
    int gc_variant;         //!< NVAlloc-GC instead of NVAlloc-LOG
    unsigned bit_stripes;   //!< interleaved bitmap stripes [1,32]
    int slab_morphing;      //!< enable slab morphing (§5.2)
    int maintenance_mode;   //!< an NvMaintenanceMode value
    uint64_t maintenance_slice_ns;    //!< ignored (fixed at 200 µs)
    double maintenance_wake_fraction; //!< ignored (fixed at 0.75)
    unsigned maintenance_scrub_lines; //!< ignored (fixed at 8)
    /* -- version 2 fields (hardening, PR 5) ------------------------ */
    unsigned guard_sample_rate;  //!< redirect 1-in-N small allocs to a
                                 //!< guard extent; 0 disables sampling
    int redzone_canaries;        //!< per-block canary words (on-media
                                 //!< property; adopted from the image
                                 //!< when reopening an existing heap)
    unsigned quarantine_depth;   //!< delayed-reuse FIFO depth; 0 = off
    int hardening_policy;        //!< an NvHardeningPolicy value
    /* -- version 3 fields (pool & patrol scrub, PR 7) -------------- */
    int patrol_scrub;            //!< ignored (the patrol always runs)
    unsigned patrol_items;       //!< ignored (fixed at 8)
    unsigned patrol_retries;     //!< ignored (fixed at 3)
    int fault_containment;       //!< Degraded/Quarantined refuses ops
                                 //!< (forced on for named/pool opens)
    uint64_t capacity_quota_bytes; //!< per-tenant extent quota; 0 = off
    /* -- version 4 fields (lock-free fast path, PR 9) -------------- */
    int fastpath;                //!< an NvFastPathMode value; both
                                 //!< select the lock-free engine
    unsigned fastpath_regions;   //!< ignored (fixed at 2)
    unsigned fastpath_batch;     //!< ignored (fixed at 24)
};

/** Fill `o` with the defaults of this header revision. */
inline void
nvalloc_options_init(nvalloc_options *o)
{
    o->version = NVALLOC_OPTIONS_VERSION;
    o->gc_variant = 0;
    o->bit_stripes = 6;
    o->slab_morphing = 1;
    o->maintenance_mode = NVALLOC_MAINT_OFF;
    o->maintenance_slice_ns = 200000;
    o->maintenance_wake_fraction = 0.75;
    o->maintenance_scrub_lines = 8;
    o->guard_sample_rate = 0;
    o->redzone_canaries = 0;
    o->quarantine_depth = 0;
    o->hardening_policy = NVALLOC_HARDEN_REPORT;
    o->patrol_scrub = 1;
    o->patrol_items = 8;
    o->patrol_retries = 3;
    o->fault_containment = 0;
    o->capacity_quota_bytes = 0;
    o->fastpath = NVALLOC_FASTPATH_LOCKFREE;
    o->fastpath_regions = 2;
    o->fastpath_batch = 24;
}

/** errno-style status codes (see nvalloc_errno). */
enum NvErrno
{
    NVALLOC_OK = 0,
    NVALLOC_ENOMEM,   //!< heap/log exhausted even after reclamation
    NVALLOC_EAGAIN,   //!< all thread slots in use; detach one first
    NVALLOC_EINVAL,   //!< bad size, double free, or foreign pointer
    NVALLOC_ECORRUPT, //!< metadata failed validation; heap degraded
};

/** Create (or recover) an NVAlloc heap on `dev`. Deprecated in favor
 *  of nvalloc_open_ex(), which validates its options and reports
 *  *why* an open failed instead of returning a silently degraded
 *  instance. */
NvInstance *nvalloc_init(PmDevice *dev,
                         const NvAllocOptions *opts = nullptr);

/**
 * Versioned open. On success stores the new instance in *out and
 * returns NVALLOC_OK. Error contract (errno-style return; *out is
 * written only where stated):
 *
 *  - NVALLOC_EINVAL: `dev`, `opts` or `out` is null, opts->version is
 *    0 or newer than this library, or an option value fails
 *    validation (bad bit_stripes, an unknown maintenance, hardening
 *    or fastpath mode). *out is untouched and the device was not
 *    modified. Callers compiled against v1/v2/v3 headers are still
 *    accepted: fields their revision did not define are never read
 *    and take this library's defaults. maintenance_slice_ns,
 *    maintenance_wake_fraction, maintenance_scrub_lines,
 *    patrol_scrub, patrol_items, patrol_retries, fastpath_regions
 *    and fastpath_batch are never validated or read.
 *  - NVALLOC_ECORRUPT: the heap image failed validation. *out
 *    receives a *degraded* instance: allocation calls fail with
 *    NVALLOC_ECORRUPT, but nvalloc_ctl / nvalloc_stats_json /
 *    nvalloc_impl work, so callers can run the auditor and decide
 *    whether to repair. Release it with nvalloc_exit as usual.
 *  - NVALLOC_OK: *out receives a fully usable instance.
 *
 * nvalloc_errno on the new instance reflects the open status.
 */
int nvalloc_open_ex(PmDevice *dev, const nvalloc_options *opts,
                    NvInstance **out);

/**
 * Named (pool) open: the process-wide heap pool keyed by `name`.
 * First open of a name creates (or recovers) the member on `dev`;
 * every later open of the same name with an IDENTICAL effective
 * configuration returns the SAME instance (handle-refcounted: each
 * successful open needs its own nvalloc_exit, and the heap shuts down
 * on the last one). An open of a registered name with DIFFERENT
 * options fails with NVALLOC_EINVAL — never silent first-wins — with
 * *out untouched, and nvalloc_errno on the existing instance reads
 * NVALLOC_EINVAL too.
 *
 * Pool members are fault-contained regardless of
 * opts->fault_containment: detected corruption quarantines the member
 * (allocations fail with NVALLOC_ECORRUPT) while other members keep
 * serving. NVALLOC_ECORRUPT at open follows the nvalloc_open_ex
 * contract (*out receives the degraded — and quarantined — member).
 */
int nvalloc_open_named(PmDevice *dev, const char *name,
                       const nvalloc_options *opts, NvInstance **out);

/** Heap health states (see stats.health.state / nvalloc_health). */
enum NvHeapHealth
{
    NVALLOC_HEALTH_SERVING = 0,
    NVALLOC_HEALTH_SCRUBBING = 1,   //!< patrol batch in flight
    NVALLOC_HEALTH_DEGRADED = 2,    //!< corruption detected, repaired
    NVALLOC_HEALTH_QUARANTINED = 3, //!< unrepaired damage; fsck first
};

/** Current health state of the instance (an NvHeapHealth value). */
int nvalloc_health(NvInstance *inst);

/** Re-audit the heap and, when clean, return it to Serving. Returns
 *  NVALLOC_OK, or NVALLOC_ECORRUPT when the audit still finds
 *  violations (run the fsck/repair tooling first). */
int nvalloc_restore_health(NvInstance *inst);

/**
 * Drive the maintenance service: `action` is one of "pause",
 * "resume", "step" (run one bounded slice on the calling thread —
 * the Off-mode pacing hook), or "wake" (nudge the background
 * thread). Returns NVALLOC_OK or NVALLOC_EINVAL for an unknown
 * action. Also reachable as nvalloc_ctl("maintenance.<action>").
 */
int nvalloc_maintenance(NvInstance *inst, const char *action);

/** Normal shutdown; detaches any implicitly attached threads. */
void nvalloc_exit(NvInstance *inst);

/**
 * Allocate `size` bytes; atomically publish the block's offset into
 * the persistent word `*where` (may be null for a volatile attach).
 * Returns the mapped address, or nullptr on failure —
 * nvalloc_errno() then reports why (NVALLOC_ENOMEM after the
 * reclamation slow path gave up, NVALLOC_EAGAIN if this thread could
 * not be attached, NVALLOC_ECORRUPT if the heap failed to open).
 */
void *nvalloc_malloc_to(NvInstance *inst, size_t size, uint64_t *where);

/** Free the block whose offset `*where` holds; clears the word.
 *  Returns NVALLOC_OK, or NVALLOC_EINVAL — leaving the heap
 *  untouched — for a null/zero word, a double free, or a foreign
 *  pointer. */
int nvalloc_free_from(NvInstance *inst, uint64_t *where);

/** Status of the most recent failing call (sticky, errno style;
 *  successful calls do not reset it). */
int nvalloc_errno(NvInstance *inst);

/* ---- transactions (DESIGN.md §11) ---------------------------------
 *
 * A transaction groups allocations, frees and 8-byte word updates on
 * the calling thread into one atomic unit: after a crash, recovery
 * resolves the whole group all-or-nothing. One transaction may be open
 * per thread; while it is open, plain nvalloc_malloc_to /
 * nvalloc_free_from on the same thread fail with NVALLOC_EINVAL.
 *
 * Error contract (all calls): NVALLOC_EINVAL — with nvalloc_errno set
 * and the heap untouched — for a nested begin, any op/commit/abort
 * without an open transaction, a tx_alloc `where` outside the device,
 * a tx_write target outside the device or misaligned, more than
 * NVALLOC_TX_MAX_OPS staged ops, or any call on
 * a degraded (ECORRUPT-opened) instance; NVALLOC_EAGAIN when the
 * calling thread cannot be attached.
 */

/** Ops one transaction can stage (see kTxMaxOps). */
#define NVALLOC_TX_MAX_OPS 30u

/** Open a transaction on the calling thread. */
int nvalloc_tx_begin(NvInstance *inst);

/** Stage an allocation of `size` bytes inside the open transaction.
 *  Returns the mapped address (or nullptr; nvalloc_errno says why).
 *  The offset is published into `*where` at commit — until then the
 *  block is invisible to recovery and rolled back on abort/crash.
 *  `where` is null or a persistent word inside the heap: the journal
 *  records it by offset, so a volatile word fails with NVALLOC_EINVAL. */
void *nvalloc_tx_alloc(NvInstance *inst, size_t size, uint64_t *where);

/** Stage a free of the block whose offset `*where` holds. The block
 *  stays allocated (and usable) until commit; pair with
 *  nvalloc_tx_write(where, 0) to clear the pointer word in the same
 *  atomic unit. Validation (double free, foreign pointer, ...) runs
 *  immediately and fails with NVALLOC_EINVAL. */
int nvalloc_tx_free(NvInstance *inst, uint64_t *where);

/** Stage an 8-byte write of `value` to the persistent word `*word`
 *  (must lie inside the heap, 8-aligned). The write lands in place
 *  now and is rolled back on abort or an uncommitted crash. */
int nvalloc_tx_write(NvInstance *inst, uint64_t *word, uint64_t value);

/** Commit: one flush makes every staged op durable atomically. */
int nvalloc_tx_commit(NvInstance *inst);

/** Abort: roll back every staged op and close the transaction. */
int nvalloc_tx_abort(NvInstance *inst);

/** Persistent root words (attach targets / GC roots). */
uint64_t *nvalloc_root(NvInstance *inst, unsigned idx);

/**
 * mallctl-style statistics query: read the counter registered under
 * the dotted `name` (e.g. "stats.flush.reflush") into *out.
 * Returns NVALLOC_OK, or NVALLOC_EINVAL for a name not in the
 * registry (*out untouched; nvalloc_errno is not affected).
 */
int nvalloc_ctl(NvInstance *inst, const char *name, uint64_t *out);

/**
 * Whole-heap statistics snapshot as JSON. Writes up to `cap` bytes
 * (always NUL-terminated when cap > 0) into `buf` and returns the
 * full snapshot length excluding the NUL — a return >= cap means the
 * output was truncated; call again with a larger buffer.
 */
size_t nvalloc_stats_json(NvInstance *inst, char *buf, size_t cap);

/** Underlying C++ object, for interop. */
NvAlloc *nvalloc_impl(NvInstance *inst);

/**
 * The calling thread's implicit ThreadCtx on this instance (attached
 * on first use, like every other C entry point). Null — with
 * nvalloc_errno = NVALLOC_EAGAIN — when all WAL slots are taken.
 * Interop hook for C++ layers (the KV veneer) that ride a C-opened
 * instance but call tx methods on nvalloc_impl() directly.
 */
ThreadCtx *nvalloc_thread(NvInstance *inst);

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_NVALLOC_C_H
