#include "nvalloc/nvalloc_c.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "nvalloc/nvalloc.h"
#include "nvalloc/pool.h"

namespace nvalloc {

static_assert(NVALLOC_TX_MAX_OPS == kTxMaxOps,
              "C header tx-op bound out of sync with layout.h");

struct NvInstance
{
    /** Plain instance: owns its heap (nvalloc_init/nvalloc_open_ex). */
    explicit NvInstance(std::unique_ptr<NvAlloc> a)
        : owned(std::move(a)), alloc(owned.get())
    {
    }

    /** Pool member: borrows the heap the process-wide HeapPool owns;
     *  torn down through the pool on the last nvalloc_exit. */
    NvInstance(NvAlloc *borrowed, std::string name)
        : alloc(borrowed), pool_name(std::move(name))
    {
    }

    std::unique_ptr<NvAlloc> owned;
    NvAlloc *alloc;
    std::string pool_name; //!< empty for plain instances
    std::mutex mutex;
    std::unordered_map<std::thread::id, ThreadCtx *> ctxs;

    /** Implicit per-thread attach; nullptr when the allocator refused
     *  the attach (slot exhaustion or a failed open). A refused thread
     *  retries on its next call rather than caching the failure. */
    ThreadCtx *
    ctx()
    {
        std::lock_guard<std::mutex> g(mutex);
        auto [it, fresh] = ctxs.emplace(std::this_thread::get_id(),
                                        nullptr);
        if (fresh || it->second == nullptr)
            it->second = alloc->attachThread();
        return it->second;
    }
};

NvInstance *
nvalloc_init(PmDevice *dev, const NvAllocOptions *opts)
{
    // Deprecated path: keeps the historical "always returns an
    // instance" contract (a corrupt image yields a degraded heap with
    // no out-of-band signal beyond nvalloc_errno).
    NvAllocConfig cfg;
    if (opts) {
        cfg.consistency =
            opts->gc_variant ? Consistency::Gc : Consistency::Log;
        cfg.bit_stripes = opts->bit_stripes;
        cfg.slab_morphing = opts->slab_morphing;
    }
    return new NvInstance(NvAlloc::openOrDie(*dev, cfg));
}

namespace {

/** Shared by nvalloc_open_ex and nvalloc_open_named: translate the
 *  versioned C options into an NvAllocConfig. Returns NVALLOC_OK or
 *  NVALLOC_EINVAL (unknown version / enum value out of range). */
int
optionsToConfig(const nvalloc_options *opts, NvAllocConfig &cfg)
{
    if (opts->version == 0 || opts->version > NVALLOC_OPTIONS_VERSION)
        return NVALLOC_EINVAL;

    // Version-1 fields are read unconditionally; later revisions'
    // fields only when the caller's header defined them.
    cfg.consistency =
        opts->gc_variant ? Consistency::Gc : Consistency::Log;
    cfg.bit_stripes = opts->bit_stripes;
    cfg.slab_morphing = opts->slab_morphing != 0;
    switch (opts->maintenance_mode) {
    case NVALLOC_MAINT_OFF:
    case NVALLOC_MAINT_MANUAL: // retired: Off already steps on demand
        cfg.maintenance_mode = MaintenanceMode::Off;
        break;
    case NVALLOC_MAINT_THREAD:
        cfg.maintenance_mode = MaintenanceMode::Thread;
        break;
    default:
        return NVALLOC_EINVAL;
    }

    if (opts->version >= 2) {
        cfg.guard_sample_rate = opts->guard_sample_rate;
        cfg.redzone_canaries = opts->redzone_canaries != 0;
        cfg.quarantine_depth = opts->quarantine_depth;
        switch (opts->hardening_policy) {
        case NVALLOC_HARDEN_REPORT:
            cfg.hardening_policy = HardeningPolicy::Report;
            break;
        case NVALLOC_HARDEN_QUARANTINE:
            cfg.hardening_policy = HardeningPolicy::Quarantine;
            break;
        case NVALLOC_HARDEN_ABORT:
            cfg.hardening_policy = HardeningPolicy::Abort;
            break;
        default:
            return NVALLOC_EINVAL;
        }
    }

    if (opts->version >= 3) {
        cfg.fault_containment = opts->fault_containment != 0;
        cfg.capacity_quota_bytes = opts->capacity_quota_bytes;
    }

    if (opts->version >= 4) {
        // Both modes open the lock-free engine; the field stays only
        // for layout compatibility.
        if (opts->fastpath != NVALLOC_FASTPATH_LOCKED &&
            opts->fastpath != NVALLOC_FASTPATH_LOCKFREE)
            return NVALLOC_EINVAL;
    }
    return NVALLOC_OK;
}

/** The process-wide pool behind nvalloc_open_named, plus the handle
 *  refcounts (one per successful named open; the member closes on the
 *  last nvalloc_exit). Both guarded by namedMu. */
struct NamedEntry
{
    NvInstance *inst;
    unsigned refs;
};

std::mutex &
namedMu()
{
    static std::mutex mu;
    return mu;
}

HeapPool &
globalPool()
{
    static HeapPool *pool = new HeapPool; // immortal, like the registry
    return *pool;
}

std::unordered_map<std::string, NamedEntry> &
namedTable()
{
    static auto *tab = new std::unordered_map<std::string, NamedEntry>;
    return *tab;
}

} // namespace

int
nvalloc_open_ex(PmDevice *dev, const nvalloc_options *opts,
                NvInstance **out)
{
    if (!dev || !opts || !out)
        return NVALLOC_EINVAL;
    NvAllocConfig cfg;
    if (optionsToConfig(opts, cfg) != NVALLOC_OK)
        return NVALLOC_EINVAL;

    OpenResult r = NvAlloc::open(*dev, cfg);
    if (!r.heap)
        return NVALLOC_EINVAL; // config rejected; device untouched
    *out = new NvInstance(std::move(r.heap));
    return r.status == NvStatus::CorruptMetadata ? NVALLOC_ECORRUPT
                                                 : NVALLOC_OK;
}

int
nvalloc_open_named(PmDevice *dev, const char *name,
                   const nvalloc_options *opts, NvInstance **out)
{
    if (!dev || !name || !*name || !opts || !out)
        return NVALLOC_EINVAL;
    NvAllocConfig cfg;
    if (optionsToConfig(opts, cfg) != NVALLOC_OK)
        return NVALLOC_EINVAL;

    std::lock_guard<std::mutex> g(namedMu());
    // The pool decides identity-vs-mismatch on the *effective* config
    // (fault_containment forced on), and records a mismatch on the
    // existing member's sticky status so its nvalloc_errno reads
    // EINVAL.
    HeapPool::MemberResult r = globalPool().open(name, *dev, cfg);
    if (!r.heap)
        return NVALLOC_EINVAL; // bad config, or options mismatch
    auto &tab = namedTable();
    auto it = tab.find(name);
    if (it != tab.end()) {
        ++it->second.refs;
        *out = it->second.inst;
    } else {
        NvInstance *inst = new NvInstance(r.heap, name);
        tab.emplace(name, NamedEntry{inst, 1});
        *out = inst;
    }
    return r.status == NvStatus::CorruptMetadata ? NVALLOC_ECORRUPT
                                                 : NVALLOC_OK;
}

int
nvalloc_health(NvInstance *inst)
{
    return int(inst->alloc->health());
}

int
nvalloc_restore_health(NvInstance *inst)
{
    return inst->alloc->restoreHealth() == NvStatus::Ok
               ? NVALLOC_OK
               : NVALLOC_ECORRUPT;
}

int
nvalloc_maintenance(NvInstance *inst, const char *action)
{
    return inst->alloc->maintenanceControl(action) == NvStatus::Ok
               ? NVALLOC_OK
               : NVALLOC_EINVAL;
}

void
nvalloc_exit(NvInstance *inst)
{
    if (!inst->pool_name.empty()) {
        // Pool member: handles are refcounted — only the LAST exit
        // detaches the threads and closes the member through the pool.
        std::lock_guard<std::mutex> g(namedMu());
        auto &tab = namedTable();
        auto it = tab.find(inst->pool_name);
        if (it != tab.end() && --it->second.refs > 0)
            return;
        {
            std::lock_guard<std::mutex> t(inst->mutex);
            for (auto &[tid, ctx] : inst->ctxs) {
                if (ctx)
                    inst->alloc->detachThread(ctx);
            }
            inst->ctxs.clear();
        }
        globalPool().close(inst->pool_name);
        if (it != tab.end())
            tab.erase(it);
        delete inst;
        return;
    }
    {
        std::lock_guard<std::mutex> g(inst->mutex);
        for (auto &[tid, ctx] : inst->ctxs) {
            if (ctx)
                inst->alloc->detachThread(ctx);
        }
        inst->ctxs.clear();
    }
    delete inst;
}

void *
nvalloc_malloc_to(NvInstance *inst, size_t size, uint64_t *where)
{
    ThreadCtx *ctx = inst->ctx();
    if (!ctx)
        return nullptr; // attach refused; nvalloc_errno says why
    return inst->alloc->mallocTo(*ctx, size, where);
}

int
nvalloc_free_from(NvInstance *inst, uint64_t *where)
{
    // On a degraded instance no free can ever be serviced: refuse it
    // as an invalid free (part of the hostile-free error contract)
    // instead of reporting a transient attach problem.
    if (inst->alloc->openStatus() != NvStatus::Ok)
        return NVALLOC_EINVAL;
    ThreadCtx *ctx = inst->ctx();
    if (!ctx)
        return NVALLOC_EAGAIN;
    return inst->alloc->freeFrom(*ctx, where) == NvStatus::Ok
               ? NVALLOC_OK
               : NVALLOC_EINVAL;
}

namespace {

/** The errno mapping shared by nvalloc_errno and the tx calls'
 *  return values. */
int
mapStatus(NvStatus s)
{
    switch (s) {
    case NvStatus::Ok:
        return NVALLOC_OK;
    case NvStatus::OutOfMemory:
    case NvStatus::LogExhausted:
    case NvStatus::RegionTableFull:
    case NvStatus::QuotaExceeded: // per-tenant quota: exhaustion shape
        return NVALLOC_ENOMEM;
    case NvStatus::TooManyThreads:
        return NVALLOC_EAGAIN;
    case NvStatus::InvalidFree:
    case NvStatus::InvalidArgument:
    case NvStatus::UnknownCtl:
        return NVALLOC_EINVAL;
    case NvStatus::CorruptMetadata:
    case NvStatus::HeapUnhealthy: // contained heap; repair it first
        return NVALLOC_ECORRUPT;
    }
    return NVALLOC_OK;
}

} // namespace

int
nvalloc_errno(NvInstance *inst)
{
    return mapStatus(inst->alloc->lastStatus());
}

/** Shared preamble of the tx entry points: a degraded instance rejects
 *  every tx call outright (EINVAL, with nvalloc_errno set via
 *  txRejected — the heap is read-only); then the implicit per-thread
 *  attach. Returns nullptr with *err set on refusal. */
static ThreadCtx *
txEnter(NvInstance *inst, int *err)
{
    if (inst->alloc->openStatus() != NvStatus::Ok) {
        inst->alloc->txRejected();
        *err = NVALLOC_EINVAL;
        return nullptr;
    }
    ThreadCtx *ctx = inst->ctx();
    if (!ctx) {
        *err = NVALLOC_EAGAIN;
        return nullptr;
    }
    return ctx;
}

int
nvalloc_tx_begin(NvInstance *inst)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return err;
    return mapStatus(inst->alloc->txBegin(*ctx));
}

void *
nvalloc_tx_alloc(NvInstance *inst, size_t size, uint64_t *where)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return nullptr;
    uint64_t off = inst->alloc->txAlloc(*ctx, size, where);
    return off ? inst->alloc->device().at(off) : nullptr;
}

int
nvalloc_tx_free(NvInstance *inst, uint64_t *where)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return err;
    if (!where || *where == 0) {
        inst->alloc->txRejected();
        return NVALLOC_EINVAL;
    }
    return mapStatus(inst->alloc->txFree(*ctx, *where));
}

int
nvalloc_tx_write(NvInstance *inst, uint64_t *word, uint64_t value)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return err;
    return mapStatus(inst->alloc->txWrite(*ctx, word, value));
}

int
nvalloc_tx_commit(NvInstance *inst)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return err;
    return mapStatus(inst->alloc->txCommit(*ctx));
}

int
nvalloc_tx_abort(NvInstance *inst)
{
    int err = NVALLOC_OK;
    ThreadCtx *ctx = txEnter(inst, &err);
    if (!ctx)
        return err;
    return mapStatus(inst->alloc->txAbort(*ctx));
}

uint64_t *
nvalloc_root(NvInstance *inst, unsigned idx)
{
    return inst->alloc->rootWord(idx);
}

NvAlloc *
nvalloc_impl(NvInstance *inst)
{
    return inst->alloc;
}

ThreadCtx *
nvalloc_thread(NvInstance *inst)
{
    return inst->ctx();
}

int
nvalloc_ctl(NvInstance *inst, const char *name, uint64_t *out)
{
    return inst->alloc->ctlRead(name, out) == NvStatus::Ok
               ? NVALLOC_OK
               : NVALLOC_EINVAL;
}

size_t
nvalloc_stats_json(NvInstance *inst, char *buf, size_t cap)
{
    std::string json = inst->alloc->statsJson();
    if (buf && cap > 0) {
        size_t n = std::min(cap - 1, json.size());
        std::memcpy(buf, json.data(), n);
        buf[n] = '\0';
    }
    return json.size();
}

} // namespace nvalloc
