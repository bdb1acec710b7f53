#include "nvalloc/nvalloc.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "pm/vclock.h"

namespace nvalloc {

namespace {

constexpr uint64_t kMallocCpuNs = 40;
constexpr uint64_t kFreeCpuNs = 40;

/**
 * Serialized portion of one lock-free fast op, booked against the
 * arena's virtual-time capacity server (Arena::bookFastOp). This is
 * the cache-line ping of a handful of CAS/fetch-ops — tens of ns —
 * where the locked path serialized the whole markAllocated hold
 * including its metadata flush. The gap between the two is the fast
 * path's modeled win.
 */
constexpr uint64_t kFastOpNs = 12;
/** Serialized cost of one region-batch reservation (many claims). */
constexpr uint64_t kFastReserveNs = 60;

} // namespace

OpenResult
NvAlloc::open(PmDevice &dev, const NvAllocConfig &cfg)
{
    OpenResult r;
    if (const char *why = cfg.invalidReason()) {
        NV_WARN(why);
        r.status = NvStatus::InvalidArgument;
        return r; // nothing constructed, device untouched
    }
    // Not make_unique: the constructor is private to force every
    // caller through this factory.
    r.heap.reset(new NvAlloc(dev, cfg));
    // A degraded heap (CorruptMetadata) is still returned: read-only
    // introspection over the corrupt image is the whole point of the
    // failed-open mode.
    r.status = r.heap->openStatus();
    return r;
}

std::unique_ptr<NvAlloc>
NvAlloc::openOrDie(PmDevice &dev, const NvAllocConfig &cfg)
{
    OpenResult r = open(dev, cfg);
    NV_ASSERT(r.status != NvStatus::InvalidArgument &&
              "NvAlloc::openOrDie: invalid NvAllocConfig");
    NV_ASSERT(r.heap);
    return std::move(r.heap);
}

NvAlloc::NvAlloc(PmDevice &dev, NvAllocConfig cfg)
    : dev_(dev), cfg_(cfg),
      sb_(static_cast<NvSuperblock *>(dev.root()))
{
    NV_ASSERT(cfg_.num_arenas >= 1 && cfg_.num_arenas <= kMaxArenas);
    NV_ASSERT(cfg_.bit_stripes >= 1 && cfg_.bit_stripes <= 32);
    wal_slot_used_.assign(kMaxThreads, false);

    static_assert(kNumNvStatuses <= kTelemetryMaxStatuses,
                  "telemetry failed-allocation family too small");

    // Telemetry observes everything from here on, and the flush
    // leaves count from here, so heap creation and recovery are
    // included and an earlier heap's flushes on this device are not.
    if (cfg_.trace_ring_capacity)
        tel_.startTracing(cfg_.trace_ring_capacity);
    flush_base_ = dev_.model().counts();
    media_late_base_ = dev_.model().mediaLateBookings();
    log_.setTelemetry(&tel_);
    large_.setTelemetry(&tel_);

    if (sb_->magic == kSuperMagic)
        recoverHeap();
    else
        createHeap();

    if (open_status_ != NvStatus::Ok) {
        // Failed open: root metadata could not be trusted. Touch no PM
        // (the corrupt image must stay inspectable), hand out no
        // threads, start no maintenance thread, and behave like a
        // crashed instance on destruction. The health machine lands in
        // Quarantined so a pool member whose recovery failed is
        // contained exactly like one the patrol caught.
        mode_.store(HeapMode::Failed, std::memory_order_relaxed);
        escalateHealth(HeapHealth::Quarantined,
                       "open failed: root metadata untrusted");
        crashed_ = true;
        return;
    }
    setArenaStates(ArenaState::Running);
    initMaintenance();
    // After recovery: recoverHeap may have adopted the image's canary
    // flag into cfg_, and a failed open must never enter the
    // cross-heap registry (it owns nothing).
    hardening_.init(this, &dev_, &tel_, cfg_);
}

void
NvAlloc::initMaintenance()
{
    MaintenanceService::Wiring w;
    w.dev = &dev_;
    w.large = &large_;
    w.log = usesBookkeepingLog() ? &log_ : nullptr;
    w.tel = &tel_;
    w.failed_allocs = [this] { return tel_.failedAllocs(); };
    w.quarantine_depth = [this] {
        return uint64_t(sb_->quarantine_count);
    };
    w.request_trim = [this] { requestTcacheTrim(); };
    w.patrol = [this] { return patrolSlice(); };
    // Ranges the scrub pass must never rewrite, live or not: the
    // superblock root area, the WAL rings, and the log region (all
    // mapped outside the large allocator's region table).
    w.protected_ranges.emplace_back(0, PmDevice::kRootSize);
    w.protected_ranges.emplace_back(
        sb_->wal_off, uint64_t(kMaxThreads) * kWalRingBytes);
    if (usesBookkeepingLog())
        w.protected_ranges.emplace_back(sb_->log_off, sb_->log_bytes);
    maint_.init(std::move(w), cfg_);
    maint_.start();
}

void
NvAlloc::requestTcacheTrim()
{
    std::lock_guard<std::mutex> g(attach_mutex_);
    for (ThreadCtx *ctx : ctxs_)
        ctx->trim_pending.store(true, std::memory_order_relaxed);
}

NvStatus
NvAlloc::maintenanceControl(const char *action)
{
    if (!action)
        return NvStatus::InvalidArgument;
    if (std::strcmp(action, "pause") == 0) {
        maint_.pause();
        return NvStatus::Ok;
    }
    if (std::strcmp(action, "resume") == 0) {
        maint_.resume();
        return NvStatus::Ok;
    }
    if (std::strcmp(action, "step") == 0) {
        maint_.step();
        return NvStatus::Ok;
    }
    if (std::strcmp(action, "wake") == 0) {
        maint_.wake(MaintWakeReason::Explicit);
        return NvStatus::Ok;
    }
    return NvStatus::InvalidArgument;
}

void
NvAlloc::simulateCrash()
{
    // Stop maintenance before rolling the device back: a slice
    // persisting mid-rollback would tear the "power failed" fiction.
    maint_.shutdown();
    // Forget guards and the quarantine without touching slabs — the
    // "process" died, and the next open must not find us registered.
    hardening_.shutdown(/*crashed=*/true);
    dev_.crash();
    crashed_ = true;
}

void
NvAlloc::dirtyRestart()
{
    maint_.shutdown();
    hardening_.shutdown(/*crashed=*/true);
    setArenaStates(ArenaState::Running);
    crashed_ = true;
}

NvAlloc::~NvAlloc()
{
    // Maintenance first — even on the crashed path — so no slice can
    // run into a heap being dismantled.
    maint_.shutdown();

    if (crashed_) {
        // The process "died": free only DRAM state, touch no PM.
        hardening_.shutdown(/*crashed=*/true);
        std::lock_guard<std::mutex> g(attach_mutex_);
        for (ThreadCtx *ctx : ctxs_)
            delete ctx;
        ctxs_.clear();
        return;
    }
    // nvalloc_exit: evict the delayed-reuse quarantine (returns lent
    // blocks to their arenas while those still exist), drain any
    // still-attached threads' tcaches so no block stays lent, then
    // make the GC variant's bitmaps durable.
    hardening_.shutdown(/*crashed=*/false);
    {
        std::lock_guard<std::mutex> g(attach_mutex_);
        for (ThreadCtx *ctx : ctxs_) {
            // Clean shutdown mid-transaction: roll back, exactly like
            // a detach would — recovery must find nothing in flight.
            if (ctx->tx.open())
                txAbort(*ctx);
            drainTcache(ctx);
            delete ctx;
        }
        ctxs_.clear();
    }
    if (gcMode()) {
        // Only the GC variant defers bitmap persistence to shutdown.
        for (auto &arena : arenas_)
            arena->persistAllBitmaps();
    }
    setArenaStates(ArenaState::NormalShutdown);
}

void
NvAlloc::setArenaStates(ArenaState state)
{
    for (unsigned i = 0; i < cfg_.num_arenas; ++i)
        sb_->arena_state[i] = uint32_t(state);
    dev_.persistFence(sb_->arena_state, sizeof(sb_->arena_state),
                      TimeKind::FlushMeta);
}

void
NvAlloc::createHeap()
{
    std::memset(sb_, 0, PmDevice::kRootSize);

    sb_->version = kSuperVersion;
    sb_->num_arenas = cfg_.num_arenas;
    sb_->stripes = cfg_.bit_stripes;
    sb_->consistency = logMode() ? 0 : (gcMode() ? 1 : 2);
    sb_->hardening_flags =
        cfg_.redzone_canaries ? kHardeningFlagCanaries : 0;

    sb_->wal_off = dev_.mapRegion(kMaxThreads * kWalRingBytes);
    if (usesBookkeepingLog()) {
        sb_->log_off = dev_.mapRegion(cfg_.log_file_bytes);
        sb_->log_bytes = cfg_.log_file_bytes;
        log_.attach(&dev_, sb_->log_off, sb_->log_bytes,
                    cfg_.interleaved_log, cfg_.log_gc_threshold,
                    /*create=*/true);
    }
    large_.init(&dev_, cfg_, usesBookkeepingLog() ? &log_ : nullptr);

    for (unsigned i = 0; i < cfg_.num_arenas; ++i) {
        arenas_.push_back(std::make_unique<Arena>(
            i, &dev_, &cfg_, &large_, &slab_radix_,
            &attached_threads_));
        arenas_.back()->setTelemetry(&tel_);
    }

    // Publish the superblock last: the config crc goes durable with
    // the body, then magic commits the format.
    sb_->sb_crc = superblockCrc(*sb_);
    dev_.persistFence(sb_, PmDevice::kRootSize, TimeKind::FlushMeta);
    sb_->magic = kSuperMagic;
    dev_.persistFence(sb_, kCacheLine, TimeKind::FlushMeta);
}

bool
NvAlloc::isQuarantined(uint64_t off) const
{
    unsigned n = std::min(sb_->quarantine_count, kQuarantineSlots);
    for (unsigned i = 0; i < n; ++i) {
        if (sb_->quarantine[i] == off)
            return true;
    }
    return false;
}

std::vector<uint64_t>
NvAlloc::quarantinedSlabs() const
{
    unsigned n = std::min(sb_->quarantine_count, kQuarantineSlots);
    return std::vector<uint64_t>(sb_->quarantine, sb_->quarantine + n);
}

void
NvAlloc::quarantineSlab(uint64_t off)
{
    ++recovery_.slabs_quarantined;
    if (isQuarantined(off))
        return;
    if (sb_->quarantine_count >= kQuarantineSlots) {
        // List full: the slab is still skipped this run, but the
        // refusal will have to be re-derived after the next crash.
        NV_WARN("quarantine list full; slab refusal not recorded");
        tel_.add(StatCounter::QuarantineListFull);
        return;
    }
    // Persist the slot before the count: the count commits the entry,
    // so a crash between the two flushes loses at most the record,
    // never publishes a garbage offset.
    sb_->quarantine[sb_->quarantine_count] = off;
    dev_.persistFence(&sb_->quarantine[sb_->quarantine_count],
                      sizeof(uint64_t), TimeKind::FlushMeta);
    ++sb_->quarantine_count;
    dev_.persistFence(&sb_->quarantine_count, sizeof(uint32_t),
                      TimeKind::FlushMeta);
}

ThreadCtx *
NvAlloc::attachThread()
{
    std::lock_guard<std::mutex> g(attach_mutex_);

    if (open_status_ != NvStatus::Ok) {
        failOp(open_status_);
        tel_.add(StatCounter::FailedAttaches);
        return nullptr;
    }

    // Claim a WAL slot before touching any shared counters so slot
    // exhaustion can back out without unwinding anything.
    unsigned slot = kMaxThreads;
    for (unsigned i = 0; i < kMaxThreads; ++i) {
        if (!wal_slot_used_[i]) {
            slot = i;
            wal_slot_used_[i] = true;
            break;
        }
    }
    if (slot == kMaxThreads) {
        failOp(NvStatus::TooManyThreads);
        tel_.add(StatCounter::FailedAttaches);
        return nullptr;
    }

    // Least-loaded arena (paper §4.2), with ties broken round-robin:
    // when threads attach and detach sequentially (as they do under a
    // single-core scheduler) all counts tie at zero, and a fixed
    // scan-from-0 would funnel every thread into arena 0's
    // virtual-time window history.
    Arena *best = nullptr;
    for (unsigned i = 0; i < arenas_.size(); ++i) {
        Arena *cand = arenas_[(attach_cursor_ + i) % arenas_.size()].get();
        if (!best ||
            cand->thread_count.load() < best->thread_count.load()) {
            best = cand;
        }
    }
    attach_cursor_ = (best->id() + 1) % unsigned(arenas_.size());
    best->thread_count.fetch_add(1);
    attached_threads_.fetch_add(1);

    constexpr unsigned kTcacheSlots = 48; // per-class capacity, blocks
    auto *ctx = new ThreadCtx(this, best, cfg_.bit_stripes,
                              cfg_.interleaved_tcache, kTcacheSlots, slot);
    // A recycled slot may hold entries of a previous thread whose
    // sequence numbers would shadow ours at replay; start clean.
    uint64_t ring_off = sb_->wal_off + uint64_t(slot) * kWalRingBytes;
    std::memset(dev_.at(ring_off), 0, kWalRingBytes);
    dev_.persistFence(dev_.at(ring_off), kWalRingBytes,
                      TimeKind::FlushWal);
    ctx->wal.attach(&dev_, sb_->wal_off + uint64_t(slot) * kWalRingBytes,
                    cfg_.interleaved_wal, cfg_.bit_stripes);
    ctxs_.push_back(ctx);
    return ctx;
}

void
NvAlloc::drainTcache(ThreadCtx *ctx)
{
    ctx->tcache.drain([](unsigned, const CachedBlock &b) {
        b.slab->arena->returnLent(b.slab, b.idx);
    });
}

void
NvAlloc::detachThread(ThreadCtx *ctx)
{
    // A detach mid-transaction rolls the transaction back: the staged
    // registry must not outlive the thread that can resolve it.
    if (ctx->tx.open())
        txAbort(*ctx);
    drainTcache(ctx);
    ctx->arena->thread_count.fetch_sub(1);
    attached_threads_.fetch_sub(1);
    std::lock_guard<std::mutex> g(attach_mutex_);
    wal_slot_used_[ctx->wal_slot] = false;
    // Keep the departing ring's append count for stats.wal.commits
    // (the slot's sequence restarts at zero on the next attach).
    wal_retired_commits_ += ctx->wal.sequence();
    ctxs_.erase(std::find(ctxs_.begin(), ctxs_.end(), ctx));
    delete ctx;
}

uint64_t
NvAlloc::walCommits()
{
    std::lock_guard<std::mutex> g(attach_mutex_);
    uint64_t sum = wal_retired_commits_;
    for (const ThreadCtx *ctx : ctxs_)
        sum += ctx->wal.sequence();
    return sum;
}

uint64_t *
NvAlloc::rootWord(unsigned idx)
{
    NV_ASSERT(idx < kNumGcRoots);
    return &sb_->gc_roots[idx];
}

VSlab *
NvAlloc::slabOf(uint64_t off) const
{
    return static_cast<VSlab *>(slab_radix_.get(off));
}

void
NvAlloc::publish(uint64_t *where, uint64_t value)
{
    if (!where)
        return;
    *where = value;
    if (dev_.contains(where))
        dev_.persistFence(where, sizeof(uint64_t), TimeKind::FlushData);
}

NvStatus
NvAlloc::failOp(NvStatus why)
{
    last_status_.store(why, std::memory_order_relaxed);
    return why;
}

void
NvAlloc::setMode(HeapMode m)
{
    // Load-then-store instead of an unconditional store: the common
    // case (already Normal, staying Normal) must not dirty the mode
    // line on every allocation. Transition counts are best-effort
    // under concurrent racing transitions, like the mode itself.
    if (mode_.load(std::memory_order_relaxed) == m)
        return;
    mode_.store(m, std::memory_order_relaxed);
    switch (m) {
    case HeapMode::Reclaiming:
        tel_.add(StatCounter::ModeToReclaiming);
        break;
    case HeapMode::Exhausted:
        tel_.add(StatCounter::ModeToExhausted);
        break;
    case HeapMode::Normal:
        tel_.add(StatCounter::ModeToNormal);
        break;
    case HeapMode::Failed:
        break;
    }
    tel_.event(TraceOp::ModeChange, uint64_t(m));
}

uint64_t
NvAlloc::failAlloc()
{
    NvStatus why = large_.lastFailure();
    if (why == NvStatus::Ok)
        why = NvStatus::OutOfMemory;
    failOp(why);
    setMode(HeapMode::Exhausted);
    tel_.noteAllocFailed(uint16_t(why));
    return 0;
}

void
NvAlloc::reclaimMemory(ThreadCtx &ctx)
{
    // Exhaustion slow path: give back everything this thread pins
    // (lent tcache blocks keep otherwise-free slabs alive), then run
    // a forced maintenance slice so tombstoned log entries and
    // demoted extents stop holding space.
    setMode(HeapMode::Reclaiming);
    tel_.add(StatCounter::ReclaimAttempts);
    tel_.event(TraceOp::Reclaim, 0);
    drainTcache(&ctx);
    // Region pins hold otherwise-free slabs against release; drop
    // every arena's CoreCache slots (they re-provision on the next
    // locked refill) so exhaustion can actually reclaim them.
    for (auto &arena : arenas_)
        arena->dropRegions();
    // Quarantined blocks pin their slabs (they stay lent) and watched
    // guard extents hold reclaimed space; give both back before the
    // retry.
    hardening_.drainQuarantine();
    hardening_.sweepGuardWatch();
    maint_.reclaimSync();
}

/**
 * Tcache-miss escalation ladder (DESIGN.md §14): lock-free reservation
 * from the own arena's region slabs, then the own arena's locked
 * refill (freelist/morph/new-slab search — which also reprovisions the
 * region slots), and only then the sibling arenas: their regions
 * first (lock-free steal), their locked refills last.
 *
 * Stealing deliberately ranks BELOW the own locked refill. A steal
 * puts a sibling's slab into this thread's tcache, and every later
 * hit on those blocks books against the sibling's fast-op server —
 * measured on thread-local workloads, eager stealing collapsed twenty
 * arenas' worth of parallelism onto a few shared servers (and starved
 * the own regions, which only a locked refill reprovisions). The own
 * arena's lock is uncontended in exactly those workloads, so it is
 * the cheaper escalation; siblings are raided only when the own arena
 * is truly dry (heap or quota exhaustion).
 */
unsigned
NvAlloc::refillSmall(ThreadCtx &ctx, unsigned cls)
{
    unsigned got = ctx.arena->fastReserve(ctx.tcache, cls);
    if (got > 0) {
        // The reserve's scan-and-claim CPU is real extra work (the hit
        // path's own advance does not cover it), unlike the per-hit
        // booking which only models serialization.
        ctx.arena->bookFastOp(kFastReserveNs);
        VClock::advance(kFastReserveNs, TimeKind::Other);
        return got;
    }
    got = ctx.arena->refill(ctx.tcache, cls);
    if (got > 0)
        return got;
    // The home arena is dry: no freelist slab, no morph candidate, and
    // a fresh slab was refused. Search the siblings — regions first
    // (no lock), then their locked refills, which can also morph or
    // carve a slab the steal cannot see. Only after every arena
    // refuses does the caller escalate to reclaim.
    for (unsigned i = 1; i < arenas_.size(); ++i) {
        Arena &peer = *arenas_[(ctx.arena->id() + i) % arenas_.size()];
        got = peer.fastReserve(ctx.tcache, cls);
        if (got > 0) {
            tel_.add(StatCounter::RegionSteals);
            peer.bookFastOp(kFastReserveNs);
            VClock::advance(kFastReserveNs, TimeKind::Other);
            return got;
        }
    }
    for (unsigned i = 1; i < arenas_.size(); ++i) {
        Arena &peer = *arenas_[(ctx.arena->id() + i) % arenas_.size()];
        got = peer.refill(ctx.tcache, cls);
        if (got > 0) {
            tel_.add(StatCounter::RegionSteals);
            return got;
        }
    }
    return 0;
}

uint64_t
NvAlloc::allocSmall(ThreadCtx &ctx, size_t size, uint64_t where_off)
{
    // With canaries on, the block must also hold the canary word, so
    // the class is chosen for size + 8 (smallLimit() keeps size + 8
    // representable).
    unsigned cls = sizeToClass(
        cfg_.redzone_canaries ? size + HardeningManager::kCanaryBytes
                              : size);

    CachedBlock blk;
    bool tcache_hit = ctx.tcache.pop(cls, blk);
    if (!tcache_hit) {
        // Cooperative trim: the maintenance service cannot touch other
        // threads' caches, so it flags them and each thread drains its
        // own on the next refill boundary (never on the hit path).
        if (ctx.trim_pending.exchange(false, std::memory_order_relaxed))
            drainTcache(&ctx);
        refillSmall(ctx, cls);
        if (!ctx.tcache.pop(cls, blk)) {
            reclaimMemory(ctx);
            refillSmall(ctx, cls);
            if (!ctx.tcache.pop(cls, blk))
                return failAlloc();
            tel_.add(StatCounter::ReclaimSuccesses);
        }
    }
    setMode(HeapMode::Normal);

    // Stamp the canary before the block is published anywhere. Not
    // flushed — recovery restamps every allocated block, so a torn
    // canary line can never read as an application stomp.
    if (cfg_.redzone_canaries)
        stampCanary(blk.off, classToSize(cls));

    // Journal first (LOG only: the GC variant rebuilds from
    // reachability and the IC variant's bitmaps are self-describing),
    // then persist the allocation bit; the attach word write that
    // commits the operation happens in the caller.
    if (logMode())
        ctx.wal.append(kWalAlloc, blk.off, where_off, size,
                       ctx.journal_tx_id);

    // The ISSUE 9 hit path: publish the allocation bit through the
    // slab's atomic state under the fast-op gate — no VLock (the
    // VLockFreeScope assert enforces exactly that in debug builds).
    // The gate only fails while the slab is frozen (morph, repair,
    // release), which routes through the locked fallback below.
    if (blk.slab->enterFast()) {
        {
            [[maybe_unused]] VLockFreeScope nolock;
            blk.slab->markAllocated(blk.idx);
            blk.slab->exitFast();
        }
        blk.slab->arena->bookFastOp(kFastOpNs);
    } else {
        tel_.add(StatCounter::LockedFallbacks);
        VLockGuard g(blk.slab->arena->lock);
        blk.slab->markAllocated(blk.idx);
    }
    VClock::advance(kMallocCpuNs, TimeKind::Other);
    tel_.noteSmallAlloc(cls, tcache_hit, blk.off);
    return blk.off;
}

uint64_t
NvAlloc::allocLarge(ThreadCtx &ctx, size_t size, uint64_t where_off)
{
    maint_.pollLogPressure();
    // Large allocations journal in both variants (paper Table 2), and
    // the WAL entry must reach media before the extent's own
    // bookkeeping-log entry does: the pre-log hook runs once an extent
    // is chosen, so a crash between the two durability points leaves a
    // WAL intent recovery can undo — not an activated extent that no
    // journal (and no transaction run) knows about.
    bool journaled = false;
    auto journal = [&](uint64_t off) {
        ctx.wal.append(kWalAlloc, off, where_off, size,
                       ctx.journal_tx_id);
        journaled = true;
    };
    uint64_t off = large_.allocate(size, false, journal);
    if (off == 0) {
        if (journaled) // extent chosen, then its log append refused
            ctx.wal.retireNewest();
        if (large_.lastFailure() == NvStatus::InvalidArgument)
            return failAlloc(); // unrepresentable size; retry is moot
        reclaimMemory(ctx);
        journaled = false;
        off = large_.allocate(size, false, journal);
        if (off == 0) {
            if (journaled)
                ctx.wal.retireNewest();
            return failAlloc();
        }
        tel_.add(StatCounter::ReclaimSuccesses);
    }
    setMode(HeapMode::Normal);
    VClock::advance(kMallocCpuNs, TimeKind::Other);
    tel_.noteLargeAlloc(size, off);
    return off;
}

// ---- health & containment (pool.h, DESIGN.md §12) -------------------

/**
 * Containment gate shared by the mutating entry points: with
 * fault_containment on, a Degraded/Quarantined heap refuses allocation
 * and free traffic (reads, stats, audit and fsck-repair keep working).
 * Returns true when the operation must be refused, having already
 * recorded why.
 */
bool
NvAlloc::refuseUnhealthy()
{
    if (!cfg_.fault_containment)
        return false;
    HeapHealth h = health_.load(std::memory_order_relaxed);
    if (unsigned(h) < unsigned(HeapHealth::Degraded))
        return false;
    tel_.add(StatCounter::HealthRejectedOp);
    failOp(NvStatus::HeapUnhealthy);
    return true;
}

void
NvAlloc::escalateHealth(HeapHealth to, const char *reason)
{
    if (unsigned(to) < unsigned(HeapHealth::Degraded))
        return; // Serving/Scrubbing are not escalation targets
    HeapHealth cur = health_.load(std::memory_order_relaxed);
    do {
        if (unsigned(cur) >= unsigned(to))
            return; // upward-only: Quarantined sticks over Degraded
    } while (!health_.compare_exchange_weak(cur, to,
                                            std::memory_order_relaxed));
    tel_.add(StatCounter::HealthEscalation);
    NV_WARN((std::string("heap health escalated to ") +
             heapHealthName(to) + ": " + (reason ? reason : "?"))
                .c_str());
    if (health_hook_)
        health_hook_(to, reason ? reason : "");
}

NvStatus
NvAlloc::restoreHealth()
{
    if (open_status_ != NvStatus::Ok)
        return failOp(open_status_); // nothing to audit against
    HeapAuditor aud(*this);
    AuditReport rep = aud.audit();
    if (!rep.clean())
        return failOp(NvStatus::CorruptMetadata);
    HeapHealth prev =
        health_.exchange(HeapHealth::Serving, std::memory_order_relaxed);
    if (unsigned(prev) >= unsigned(HeapHealth::Degraded))
        tel_.add(StatCounter::HealthRestore);
    return NvStatus::Ok;
}

unsigned
NvAlloc::patrolSlice()
{
    if (open_status_ != NvStatus::Ok)
        return 0; // a failed open trusts nothing; fsck owns the image
    std::lock_guard<std::mutex> g(patrol_mu_);

    // Publish Scrubbing for the duration of the walk, but only from
    // Serving: the CAS can never mask a Degraded/Quarantined state
    // another detector put up first.
    HeapHealth expect = HeapHealth::Serving;
    bool published = health_.compare_exchange_strong(
        expect, HeapHealth::Scrubbing, std::memory_order_relaxed);

    // Items per slice bound how long it holds arena vlocks and the
    // large-allocator lock; a mismatch must read the same this many
    // times under the live mutator before it counts as damage.
    constexpr unsigned kPatrolItems = 8;
    constexpr unsigned kPatrolRetries = 3;
    HeapAuditor aud(*this);
    PatrolSliceResult r =
        aud.patrolStep(patrol_cursor_, kPatrolItems, kPatrolRetries);

    if (published) {
        expect = HeapHealth::Scrubbing;
        health_.compare_exchange_strong(expect, HeapHealth::Serving,
                                        std::memory_order_relaxed);
    }

    tel_.add(StatCounter::ScrubSlice);
    tel_.add(StatCounter::ScrubItem, r.items);
    tel_.add(StatCounter::ScrubFinding, r.findings);
    tel_.add(StatCounter::ScrubRepaired, r.repaired);
    tel_.add(StatCounter::ScrubRetry, r.retries);
    if (r.wrapped)
        tel_.add(StatCounter::ScrubPass);

    if (r.findings) {
        // Damage the patrol repaired in place (slab headers) degrades
        // the heap; damage it cannot derive a fix for (superblock,
        // region table, log chain, stable bitmap drift) quarantines it
        // until fsck repairs the image and restoreHealth() re-audits.
        std::string why =
            "patrol: " + (r.notes.empty() ? "finding" : r.notes.front());
        escalateHealth(r.repaired >= r.findings
                           ? HeapHealth::Degraded
                           : HeapHealth::Quarantined,
                       why.c_str());
    }
    return r.items;
}

// ---- hardening hooks (hardening.h, DESIGN.md §9) --------------------

/** Largest request the small path serves: with canaries on, the last
 *  8 bytes of the largest class are the canary word, so a full-size
 *  request must go to the large allocator instead. */
size_t
NvAlloc::smallLimit() const
{
    return cfg_.redzone_canaries
               ? kSmallMax - HardeningManager::kCanaryBytes
               : kSmallMax;
}

bool
NvAlloc::guardDue(ThreadCtx &ctx)
{
    if (++ctx.guard_tick < cfg_.guard_sample_rate)
        return false;
    ctx.guard_tick = 0;
    return true;
}

/**
 * Serve a sampled small allocation from a dedicated guard extent: the
 * 16 KB extent grain guarantees at least a cache line of tail past any
 * small request, which is filled with the redzone pattern and verified
 * at free. Falls back to the ordinary small path if the large
 * allocator cannot serve the extent — sampling must never turn a
 * servable allocation into a failure.
 */
uint64_t
NvAlloc::guardAlloc(ThreadCtx &ctx, size_t size, uint64_t where_off)
{
    maint_.pollLogPressure();
    // Journal like any large allocation (and like allocLarge, via the
    // pre-log hook so the WAL entry is durable before the extent's log
    // entry): after a crash the guard is recovered as a plain activated
    // extent (its registration is volatile, so the redzone is no longer
    // checked — documented best-effort).
    bool journaled = false;
    uint64_t off = large_.allocate(
        size + kCacheLine, false, [&](uint64_t o) {
            ctx.wal.append(kWalAlloc, o, where_off, size);
            journaled = true;
        });
    if (off == 0) {
        if (journaled)
            ctx.wal.retireNewest();
        return allocSmall(ctx, size, where_off);
    }
    setMode(HeapMode::Normal);
    Veh *veh = large_.findVeh(off); // just allocated by this thread
    NV_ASSERT(veh && veh->off == off);
    hardening_.armGuard(off, size, veh->size);
    VClock::advance(kMallocCpuNs, TimeKind::Other);
    tel_.noteLargeAlloc(veh->size, off);
    return off;
}

/** Reject a free: classify it, bump the degradation and hardening
 *  counters, run the report/policy machinery, and leave the heap (and
 *  the WAL) untouched. */
NvStatus
NvAlloc::rejectFree(uint64_t off, CorruptionKind kind)
{
    tel_.noteInvalidFree(off, uint16_t(NvStatus::InvalidFree));
    // A locally-unowned offset that another live heap owns is the
    // classic cross-heap free; only probed on the cold reject path,
    // and only when nothing local claimed the offset.
    if (kind == CorruptionKind::WildFree &&
        hardening_.ownedByAnotherHeap(off)) {
        kind = CorruptionKind::CrossHeapFree;
    }
    hardening_.report(kind, off, ~0u,
                      std::string("rejected free (") +
                          corruptionKindName(kind) + ")");
    return failOp(NvStatus::InvalidFree);
}

void
NvAlloc::stampCanary(uint64_t off, unsigned block_size)
{
    uint64_t *w = reinterpret_cast<uint64_t *>(
        static_cast<char *>(dev_.at(off)) + block_size -
        HardeningManager::kCanaryBytes);
    *w = HardeningManager::canaryValue(off);
}

bool
NvAlloc::canaryOk(uint64_t off, unsigned block_size) const
{
    const uint64_t *w = reinterpret_cast<const uint64_t *>(
        static_cast<const char *>(dev_.at(off)) + block_size -
        HardeningManager::kCanaryBytes);
    return *w == HardeningManager::canaryValue(off);
}

/**
 * Recovery epilogue: rewrite the canary of every allocated small
 * block (current and old geometry). Canaries are deliberately never
 * flushed, so after a crash they may hold torn or stale words; without
 * the restamp every post-crash free would report a phantom stomp.
 */
void
NvAlloc::restampCanaries()
{
    if (!cfg_.redzone_canaries)
        return;
    forEachAllocated([this](uint64_t off, size_t size, bool small) {
        if (small)
            stampCanary(off, unsigned(size));
    });
}

bool
NvAlloc::ownsOffset(uint64_t off) const
{
    if (off == 0 || off >= dev_.size())
        return false;
    if (slabOf(off))
        return true;
    Veh *veh = large_.findVeh(off);
    return veh && veh->state == Veh::State::Activated;
}

uint64_t
NvAlloc::allocOffset(ThreadCtx &ctx, size_t size, uint64_t *where)
{
    // See freeOffset: plain ops would shadow the open tx run's WAL
    // resolution; the tx surface (txAlloc) is the way to allocate here.
    if (ctx.tx.open()) {
        tel_.add(StatCounter::TxPlainOpRejected);
        failOp(NvStatus::InvalidArgument);
        return 0;
    }
    if (refuseUnhealthy()) {
        tel_.noteAllocFailed(uint16_t(NvStatus::HeapUnhealthy));
        return 0;
    }
    if (size == 0) {
        failOp(NvStatus::InvalidArgument);
        tel_.noteAllocFailed(uint16_t(NvStatus::InvalidArgument));
        return 0;
    }
    uint64_t where_off =
        where && dev_.contains(where) ? dev_.offsetOf(where) : kWalNoWhere;

    uint64_t off;
    if (size <= smallLimit()) {
        off = cfg_.guard_sample_rate && guardDue(ctx)
                  ? guardAlloc(ctx, size, where_off)
                  : allocSmall(ctx, size, where_off);
    } else {
        off = allocLarge(ctx, size, where_off);
    }
    if (off == 0)
        return 0; // failed allocation publishes nothing
    publish(where, off);
    return off;
}

void *
NvAlloc::mallocTo(ThreadCtx &ctx, size_t size, uint64_t *where)
{
    uint64_t off = allocOffset(ctx, size, where);
    return off ? dev_.at(off) : nullptr;
}

/** Verdict of a small free's gate step, consumed by finishSmall. */
struct NvAlloc::SmallFree
{
    enum class Kind : uint8_t
    {
        Retired,
        Leaked,
        Misaligned,
        AlreadyFree,
        Resolve, //!< slab released under us: resolve provenance again
    };
    enum class Route : uint8_t { Tcache, Quarantine, Pending, Old };
    Kind kind = Kind::Retired;
    Route route = Route::Pending;
    bool stomped = false; //!< canary dirtied; reported after the gate
    unsigned idx = 0;
    unsigned cls = 0;
    unsigned bsize = 0;
};

/**
 * Plain free: the strict caller of the free pipeline. While this
 * thread holds an open transaction, an untagged entry at its ring tail
 * would shadow the run's all-or-nothing resolution after a crash, so
 * plain ops are rejected until commit/abort.
 */
NvStatus
NvAlloc::freeOffset(ThreadCtx &ctx, uint64_t off, uint64_t *where)
{
    if (ctx.tx.open()) {
        tel_.add(StatCounter::TxPlainOpRejected);
        return failOp(NvStatus::InvalidArgument);
    }
    if (refuseUnhealthy())
        return NvStatus::HeapUnhealthy;
    // A block staged by ANY open transaction (allocated-but-unpublished
    // or pending a deferred free) is off-limits to plain free until
    // the transaction resolves. One relaxed load when no tx is staging.
    if (tx_mgr_.isStaged(off))
        return rejectFree(off, CorruptionKind::TxStagedFree);
    uint64_t where_off =
        where && dev_.contains(where) ? dev_.offsetOf(where) : kWalNoWhere;
    FreeResult r =
        freeBlock(FreeCall{&ctx, off, where, where_off, FreeMode::Strict});
    return r == FreeResult::Refused ? NvStatus::InvalidFree
                                    : NvStatus::Ok;
}

/**
 * The free pipeline's provenance resolver (DESIGN.md §9): guard
 * registry, then slab radix, then extent radix. Each retire path
 * validates inside the step that also journals and mutates, so
 * validation and mutation see the same state; rejections keep their
 * kinds (wild, misaligned, double) and, except for idempotent callers,
 * are classified and reported by rejectFree.
 */
NvAlloc::FreeResult
NvAlloc::freeBlock(const FreeCall &c)
{
    if (c.off == 0 || c.off >= dev_.size())
        return refuseFree(c, CorruptionKind::WildFree);
    // Guard extents first: underneath they are large extents, but
    // their free verifies the redzone and poisons the user area.
    if (cfg_.guard_sample_rate && hardening_.isGuard(c.off))
        return retireExtent(c, /*guard=*/true);
    if (VSlab *slab = slabOf(c.off))
        return retireSmall(c, slab);
    return retireExtent(c, /*guard=*/false);
}

NvAlloc::FreeResult
NvAlloc::refuseFree(const FreeCall &c, CorruptionKind kind)
{
    if (c.mode != FreeMode::Idempotent)
        rejectFree(c.off, kind);
    return FreeResult::Refused;
}

/** Frees route through the delayed-reuse FIFO. Never during recovery:
 *  the manager is wired after recoverHeap returns, and the quarantine
 *  is a volatile defense against live mutators, of which there are
 *  none yet. */
bool
NvAlloc::quarantineFrees() const
{
    return hardening_.ready() &&
           (cfg_.quarantine_depth > 0 ||
            (cfg_.redzone_canaries &&
             hardening_.policy() == HardeningPolicy::Quarantine));
}

/**
 * The one extent retire, shared by plain, guard and commit-time frees:
 * validate, journal + clear the attach word (strict callers only),
 * then return the extent. A guard additionally has its redzone
 * verified and its user area poisoned and watched: a use-after-free
 * write lands in the poison fill, which the watch list verifies
 * (under the large allocator's lock) while the extent stays reclaimed.
 */
NvAlloc::FreeResult
NvAlloc::retireExtent(const FreeCall &c, bool guard)
{
    HardeningManager::GuardInfo info;
    if (guard) {
        if (c.mode == FreeMode::Validate)
            return FreeResult::Retired; // registered = live
        if (!hardening_.takeGuard(c.off, &info))
            return refuseFree(c, CorruptionKind::DoubleFree);
        if (!hardening_.guardRedzoneIntact(c.off, info)) {
            hardening_.report(
                CorruptionKind::GuardOverflow, c.off, ~0u,
                "guard redzone dirtied — overflow past the allocation");
        }
    } else {
        // A foreign offset (no extent, mid-extent, free extent, or a
        // slab's interior) must leave both the WAL and the heap
        // untouched.
        Veh *veh = large_.findVeh(c.off);
        if (!veh)
            return refuseFree(c, CorruptionKind::WildFree);
        if (veh->off != c.off)
            return refuseFree(c, CorruptionKind::MisalignedFree);
        if (veh->state != Veh::State::Activated)
            return refuseFree(c, CorruptionKind::DoubleFree);
        if (veh->is_slab)
            return refuseFree(c, CorruptionKind::MisalignedFree);
        if (c.mode == FreeMode::Validate)
            return FreeResult::Retired;
        info.extent_size = veh->size;
    }
    if (c.mode == FreeMode::Strict) {
        c.ctx->wal.append(kWalFree, c.off, c.where_off, 0);
        publish(c.where, 0);
    }
    if (guard) {
        std::memset(dev_.at(c.off), HardeningManager::kGuardFreeByte,
                    info.user_size);
    }
    large_.free(c.off);
    if (guard) {
        hardening_.watchFreedGuard(c.off, info);
        tel_.add(StatCounter::GuardFree);
    }
    if (c.mode == FreeMode::Strict)
        VClock::advance(kFreeCpuNs, TimeKind::Other);
    tel_.noteLargeFree(info.extent_size, c.off);
    maint_.pollLogPressure(); // the tombstone may cross the wake level
    return FreeResult::Retired;
}

/**
 * The one small-block retire (DESIGN.md §14). Lock-free through the
 * slab's fast-op gate; the arena VLock is taken only when the gate is
 * frozen (morph, repair or release in flight) or when the block may be
 * an old-geometry one of a morphing slab, whose index table only the
 * lock serializes. Reports and FIFO/stack pushes happen after both
 * the gate and the lock are left.
 */
NvAlloc::FreeResult
NvAlloc::retireSmall(const FreeCall &c, VSlab *slab)
{
    SmallFree f;
    if (!slab->enterFast() || !gateRetire(c, slab, false, f)) {
        tel_.add(StatCounter::LockedFallbacks);
        VLockGuard g(slab->arena->lock);
        unsigned old_idx = 0;
        // Freezers hold this lock, so a slab still frozen now was
        // released: its radix range names whatever reuses the extent.
        if (slab->frozen() || slabOf(c.off) != slab) {
            f.kind = SmallFree::Kind::Resolve;
        } else if (slab->isOldBlock(c.off, old_idx)) {
            // blocks_before bypass the tcache and the quarantine (paper
            // §5.2); a stomped one leaks under every policy.
            f.route = SmallFree::Route::Old;
            f.cls = slab->header()->old_size_class;
            f.stomped = c.mode != FreeMode::Idempotent &&
                        cfg_.redzone_canaries &&
                        !canaryOk(c.off, classToSize(f.cls));
            if (f.stomped) {
                f.kind = SmallFree::Kind::Leaked;
            } else if (c.mode != FreeMode::Validate) {
                if (c.mode == FreeMode::Strict) {
                    if (logMode())
                        c.ctx->wal.append(kWalFree, c.off, c.where_off, 0);
                    publish(c.where, 0);
                }
                slab->arena->freeOld(slab, old_idx);
            }
        } else {
            bool entered = slab->enterFast();
            NV_ASSERT(entered); // no freeze can start under our lock
            gateRetire(c, slab, true, f);
        }
    }
    if (f.kind == SmallFree::Kind::Resolve)
        return freeBlock(c);
    return finishSmall(c, slab, f);
}

/**
 * Validate and retire a current-geometry block inside the fast-op gate
 * (entered by the caller, always exited here). Exactly one of two
 * racing frees of a block proceeds: the persistent bit cannot
 * arbitrate — journal-first ordering clears it only after the WAL
 * append — so the freeing claim bit does. Returns false, having
 * touched nothing, when an unlocked caller must retry under the lock.
 */
bool
NvAlloc::gateRetire(const FreeCall &c, VSlab *slab, bool locked,
                    SmallFree &f)
{
    [[maybe_unused]] VLockFreeScope nolock;
    unsigned idx = slab->blockIndexOf(c.off);
    bool aligned = idx < slab->capacity();
    // In a morphing slab only an allocated current-geometry bit proves
    // the block is not an old-geometry one (VSlab::isOldBlock).
    if (!locked && slab->morphing() &&
        !(aligned && slab->isAllocated(idx))) {
        slab->exitFast();
        return false;
    }
    if (!aligned) {
        slab->exitFast();
        f.kind = SmallFree::Kind::Misaligned;
        return true;
    }
    // A set claim bit is NOT itself a double-free verdict: the previous
    // free of this block clears the allocation bit before releasing
    // its claim, so a refill can re-grant the block — and the new
    // owner re-free it — inside that instruction-scale window. Wait out
    // the in-flight free, then re-arbitrate; a true double free
    // resolves below through the allocation bit.
    unsigned spins = 0;
    while (!slab->tryBeginFree(idx)) {
        if (++spins >= 128) {
            std::this_thread::yield();
            spins = 0;
        }
    }
    f.idx = idx;
    f.cls = slab->sizeClass();
    f.bsize = slab->blockSize();
    bool allocated = slab->isAllocated(idx);
    f.stomped = allocated && c.mode != FreeMode::Idempotent &&
                cfg_.redzone_canaries && !canaryOk(c.off, f.bsize);
    // Under the Quarantine policy a stomped block is still freed,
    // through the delayed-reuse FIFO; otherwise it is reported and
    // leaked (its bit stays set, nothing is journaled).
    bool leak = f.stomped && (c.mode == FreeMode::Validate ||
                              hardening_.policy() !=
                                  HardeningPolicy::Quarantine);
    if (!allocated || leak || c.mode == FreeMode::Validate) {
        slab->endFree(idx);
        slab->exitFast();
        f.kind = !allocated ? SmallFree::Kind::AlreadyFree
                 : leak     ? SmallFree::Kind::Leaked
                            : SmallFree::Kind::Retired;
        return true;
    }

    // Mostly-idle slabs are morph candidates; blocks freed into a
    // tcache or the quarantine stay lent and would pin them, so those
    // frees go straight back to the slab (like blocks_before, §5.2).
    // Any caller with a thread feeds its tcache: a plain free, and a
    // live commit apply or rollback. Recovery has none.
    bool keep_unpinned = cfg_.slab_morphing &&
                         slab->occupancy() <= cfg_.morph_threshold;
    if (!keep_unpinned && quarantineFrees())
        f.route = SmallFree::Route::Quarantine;
    else if (!keep_unpinned && c.ctx && !c.ctx->tcache.full(f.cls))
        f.route = SmallFree::Route::Tcache;
    else
        f.route = SmallFree::Route::Pending;

    // Journal, clear the attach word, then clear + persist the bit.
    if (c.mode == FreeMode::Strict) {
        if (logMode())
            c.ctx->wal.append(kWalFree, c.off, c.where_off, 0);
        publish(c.where, 0);
    }
    if (f.route == SmallFree::Route::Pending)
        slab->markFree(idx);
    else
        slab->markFreeToTcache(idx);
    slab->endFree(idx);
    slab->exitFast();
    // Under the lock the VLock's own hold accounting models the
    // serialization; the gate books its fast-op window instead.
    if (!locked)
        slab->arena->bookFastOp(kFastOpNs);
    f.kind = SmallFree::Kind::Retired;
    return true;
}

/** Outside the gate and the lock: reports, the tcache / quarantine /
 *  pending-stack hand-off, and the per-free charges. */
NvAlloc::FreeResult
NvAlloc::finishSmall(const FreeCall &c, VSlab *slab, const SmallFree &f)
{
    if (f.kind == SmallFree::Kind::Misaligned)
        return refuseFree(c, CorruptionKind::MisalignedFree);
    if (f.kind == SmallFree::Kind::AlreadyFree)
        return refuseFree(c, CorruptionKind::DoubleFree);
    if (f.stomped) {
        hardening_.report(CorruptionKind::CanaryStomp, c.off, f.cls,
                          f.route == SmallFree::Route::Old
                              ? "old-geometry block canary dirtied"
                              : "block canary dirtied — overflow into "
                                "the canary word");
    }
    if (f.kind == SmallFree::Kind::Leaked) {
        tel_.add(StatCounter::LeakedBlock);
        if (c.mode == FreeMode::Strict)
            publish(c.where, 0);
        return FreeResult::Leaked;
    }
    if (c.mode == FreeMode::Validate)
        return FreeResult::Retired;
    switch (f.route) {
    case SmallFree::Route::Tcache: {
        bool ok = c.ctx->tcache.push(f.cls,
                                     CachedBlock{c.off, slab, f.idx});
        NV_ASSERT(ok);
        break;
    }
    case SmallFree::Route::Quarantine:
        hardening_.quarantinePush(slab, f.idx, c.off, f.bsize);
        break;
    case SmallFree::Route::Pending:
        // The freelists don't know about this availability yet; hand
        // the slab to the next locked refill via the pending stack.
        slab->arena->pendingPush(slab);
        break;
    case SmallFree::Route::Old:
        break; // freeOld already re-enlisted it under the lock
    }
    if (c.mode == FreeMode::Strict)
        VClock::advance(kFreeCpuNs, TimeKind::Other);
    tel_.noteSmallFree(f.cls, c.off);
    return FreeResult::Retired;
}

NvStatus
NvAlloc::freeFrom(ThreadCtx &ctx, uint64_t *where)
{
    if (!where || *where == 0) {
        tel_.noteInvalidFree(0, uint16_t(NvStatus::InvalidFree));
        return failOp(NvStatus::InvalidFree);
    }
    return freeOffset(ctx, *where, where);
}

void
NvAlloc::forEachAllocated(
    const std::function<void(uint64_t, size_t, bool)> &fn)
{
    for (auto &arena : arenas_) {
        arena->forEachSlab([&](VSlab *slab) {
            for (unsigned idx = 0; idx < slab->capacity(); ++idx) {
                if (slab->isAllocated(idx))
                    fn(slab->blockOffset(idx), slab->blockSize(), true);
            }
            // blocks_before of a morphing slab are allocated objects
            // under the old geometry.
            const SlabHeader *hdr = slab->header();
            if (slab->morphing()) {
                SlabGeometry old = SlabGeometry::compute(
                    hdr->old_size_class, hdr->stripes);
                for (unsigned i = 0; i < hdr->index_count; ++i) {
                    uint16_t entry = hdr->index_table[i];
                    if (entry & kIndexAllocated) {
                        unsigned old_idx = entry & kIndexBlockMask;
                        fn(slab->slabOffset() + kSlabHeaderSize +
                               uint64_t(old_idx) * old.block_size,
                           old.block_size, true);
                    }
                }
            }
        });
    }
    large_.forEachActivated([&](Veh *veh) {
        if (!veh->is_slab)
            fn(veh->off, veh->size, false);
    });
}

std::array<uint64_t, 3>
NvAlloc::slabUtilizationBytes()
{
    std::array<uint64_t, 3> buckets{0, 0, 0};
    for (auto &arena : arenas_) {
        arena->forEachSlab([&](VSlab *slab) {
            double occ = slab->occupancy();
            unsigned b = occ < 0.3 ? 0 : occ < 0.7 ? 1 : 2;
            buckets[b] += kSlabSize;
        });
    }
    return buckets;
}

} // namespace nvalloc
