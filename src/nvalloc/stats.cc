/**
 * @file
 * The heap's introspection registry: every exported statistic is
 * registered here under its dotted ctl name (see telemetry/ctl.h).
 *
 * Three kinds of sources feed the tree:
 *  - the sharded telemetry counters (hot-path traffic, flush classes),
 *  - subsystem Stats structs read on demand (Arena, BookkeepingLog,
 *    RecoveryInfo, DegradedStats, PmDevice),
 *  - tiny computed values (per-class bytes, live counts, mode).
 *
 * The registry is built lazily on the first ctl use and is immutable
 * afterwards; readers are called with no heap lock held and only load
 * atomics / read plain counters, so introspection never blocks
 * allocation.
 */

#include "nvalloc/nvalloc.h"

#include <cstring>
#include <string>

#include "common/size_classes.h"

namespace nvalloc {

void
NvAlloc::buildCtlRegistry()
{
    Telemetry *tel = &tel_;

    // Every scalar shard counter under its canonical name.
    for (unsigned i = 0; i < kNumStatCounters; ++i) {
        auto ctr = StatCounter(i);
        ctl_.registerName(std::string("stats.") + statCounterName(ctr),
                          [tel, ctr] { return tel->total(ctr); });
    }

    // Derived hot-path totals: the recording path maintains only the
    // per-class / per-arena families plus tcache.miss (one counter
    // store per allocation); these names sum them at read time.
    ctl_.registerName("stats.alloc.small",
                      [tel] { return tel->smallAllocs(); });
    ctl_.registerName("stats.free.small",
                      [tel] { return tel->smallFrees(); });
    ctl_.registerName("stats.tcache.hit",
                      [tel] { return tel->tcacheHits(); });
    ctl_.registerName("stats.alloc.small_bytes",
                      [tel] { return tel->smallAllocBytes(); });
    ctl_.registerName("stats.free.small_bytes",
                      [tel] { return tel->smallFreeBytes(); });

    // Flush classification: per-class totals sum the sink-fed
    // per-arena attribution matrix; fences come straight from the
    // latency model (the sink is not called for fences).
    for (unsigned c = 0; c < kNumFlushClasses; ++c) {
        auto fc = FlushClass(c);
        ctl_.registerName(std::string("stats.flush.") +
                              flushClassName(fc),
                          [tel, fc] { return tel->flushClassTotal(fc); });
    }
    ctl_.registerName("stats.flush.total",
                      [tel] { return tel->flushTotal(); });
    {
        PmDevice *dev = &dev_;
        ctl_.registerName("stats.flush.fences", [dev] {
            return dev->model().counts().fences;
        });
    }

    // WAL commits are derived from the per-thread rings' own append
    // sequences (plus detached rings' retained totals) instead of a
    // hot-path counter.
    ctl_.registerName("stats.wal.commits",
                      [this] { return walCommits(); });

    // Per-size-class family, keyed by block size in bytes.
    for (unsigned cls = 0; cls < kNumSizeClasses; ++cls) {
        std::string base =
            "stats.class." + std::to_string(classToSize(cls)) + ".";
        ctl_.registerName(base + "alloc",
                          [tel, cls] { return tel->classAllocs(cls); });
        ctl_.registerName(base + "free",
                          [tel, cls] { return tel->classFrees(cls); });
        ctl_.registerName(base + "live", [tel, cls] {
            uint64_t a = tel->classAllocs(cls);
            uint64_t f = tel->classFrees(cls);
            return a > f ? a - f : 0;
        });
    }

    // Per-arena family: slab lifecycle from the arena's own Stats,
    // flush classes from the telemetry attribution array.
    for (unsigned i = 0; i < arenas_.size(); ++i) {
        Arena *a = arenas_[i].get();
        std::string base = "stats.arena." + std::to_string(i) + ".";
        ctl_.registerName(base + "threads", [a] {
            return uint64_t(a->thread_count.load());
        });
        ctl_.registerName(base + "slabs_created", [a] {
            return a->stats().slabs_created;
        });
        ctl_.registerName(base + "slabs_released", [a] {
            return a->stats().slabs_released;
        });
        ctl_.registerName(base + "morphs",
                          [a] { return a->stats().morphs; });
        ctl_.registerName(base + "refills",
                          [a] { return a->stats().refills; });
        for (unsigned c = 0; c < kNumFlushClasses; ++c) {
            auto fc = FlushClass(c);
            ctl_.registerName(base + "flush." + flushClassName(fc),
                              [tel, i, fc] {
                                  return tel->arenaFlush(i, fc);
                              });
        }
    }

    // Bookkeeping log: authoritative Stats struct (includes replay
    // rejection counts the shards never see).
    if (usesBookkeepingLog()) {
        BookkeepingLog *log = &log_;
        ctl_.registerName("stats.log.entries_copied", [log] {
            return log->stats().entries_copied.load(
                std::memory_order_relaxed);
        });
        ctl_.registerName("stats.log.live_entries", [log] {
            return uint64_t(log->liveEntries());
        });
        ctl_.registerName("stats.log.active_chunks", [log] {
            return uint64_t(log->activeChunks());
        });
        ctl_.registerName("stats.log.gc_ns", [log] {
            return log->stats().gc_ns.load(std::memory_order_relaxed);
        });
        ctl_.registerName("stats.log.replay.entries_rejected", [log] {
            return log->stats().replay_entries_rejected;
        });
        ctl_.registerName("stats.log.replay.chunks_rejected", [log] {
            return log->stats().replay_chunks_rejected;
        });
    }

    // Degradation machine.
    ctl_.registerName("stats.mode.current", [this] {
        return uint64_t(mode_.load(std::memory_order_relaxed));
    });
    const DegradedStats *deg = &deg_stats_;
    ctl_.registerName("stats.degraded.reclaim_attempts", [deg] {
        return deg->reclaim_attempts.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.degraded.reclaim_successes", [deg] {
        return deg->reclaim_successes.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.degraded.failed_allocs", [deg] {
        return deg->failed_allocs.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.degraded.invalid_frees", [deg] {
        return deg->invalid_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.degraded.failed_attaches", [deg] {
        return deg->failed_attaches.load(std::memory_order_relaxed);
    });

    // What the last recovery did (static after open).
    const RecoveryInfo *rec = &recovery_;
    ctl_.registerName("stats.recovery.performed",
                      [rec] { return uint64_t(rec->performed); });
    ctl_.registerName("stats.recovery.after_failure",
                      [rec] { return uint64_t(rec->after_failure); });
    ctl_.registerName("stats.recovery.slabs_rebuilt",
                      [rec] { return rec->slabs_rebuilt; });
    ctl_.registerName("stats.recovery.extents_rebuilt",
                      [rec] { return rec->extents_rebuilt; });
    ctl_.registerName("stats.recovery.wal_completions",
                      [rec] { return rec->wal_completions; });
    ctl_.registerName("stats.recovery.wal_undos",
                      [rec] { return rec->wal_undos; });
    ctl_.registerName("stats.recovery.wal_rejected",
                      [rec] { return rec->wal_rejected; });
    ctl_.registerName("stats.recovery.slabs_quarantined",
                      [rec] { return rec->slabs_quarantined; });
    ctl_.registerName("stats.recovery.lines_poisoned",
                      [rec] { return rec->lines_poisoned; });
    ctl_.registerName("stats.recovery.gc_reclaimed_blocks",
                      [rec] { return rec->gc_reclaimed_blocks; });
    ctl_.registerName("stats.recovery.virtual_ns",
                      [rec] { return rec->virtual_ns; });

    // Maintenance service (PR 4). All monotonic except mode/paused.
    const MaintenanceStats *ms = &maint_.stats();
    ctl_.registerName("stats.maintenance.slices", [ms] {
        return ms->slices.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.wakes", [ms] {
        return ms->wakes.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.log_fast_gc", [ms] {
        return ms->log_fast_gc.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.log_slow_gc", [ms] {
        return ms->log_slow_gc.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.decay_ticks", [ms] {
        return ms->decay_ticks.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.scrubbed_lines", [ms] {
        return ms->scrubbed_lines.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.trim_requests", [ms] {
        return ms->trim_requests.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.deferred", [ms] {
        return ms->deferred.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.virtual_ns", [ms] {
        return ms->virtual_ns.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.gc_virtual_ns", [ms] {
        return ms->gc_virtual_ns.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.maintenance.mode", [this] {
        return uint64_t(maint_.mode());
    });
    ctl_.registerName("stats.maintenance.paused", [this] {
        return uint64_t(maint_.paused());
    });
    ctl_.registerName("stats.maintenance.patrol_slices", [ms] {
        return ms->patrol_slices.load(std::memory_order_relaxed);
    });

    // Health machine + online patrol scrubber (PR 7, DESIGN.md §12).
    const ScrubStats *ss = &scrub_stats_;
    const HealthStats *hls = &health_stats_;
    ctl_.registerName("stats.health.state", [this] {
        return uint64_t(health_.load(std::memory_order_relaxed));
    });
    ctl_.registerName("stats.health.escalations", [hls] {
        return hls->escalations.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.health.restores", [hls] {
        return hls->restores.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.health.rejected_ops", [hls] {
        return hls->rejected_ops.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.slices", [ss] {
        return ss->slices.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.items", [ss] {
        return ss->items.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.findings", [ss] {
        return ss->findings.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.repaired", [ss] {
        return ss->repaired.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.retries", [ss] {
        return ss->retries.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.scrub.passes", [ss] {
        return ss->passes.load(std::memory_order_relaxed);
    });

    // Hardening (PR 5): detection and containment counters, plus the
    // live depths of the guard map, the guard watch and the quarantine
    // FIFO (those three take the hardening mutex briefly).
    const HardeningStats *hs = &hardening_.stats();
    ctl_.registerName("stats.hardening.validated_frees", [hs] {
        return hs->validated_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.double_frees", [hs] {
        return hs->double_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.misaligned_frees", [hs] {
        return hs->misaligned_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.wild_frees", [hs] {
        return hs->wild_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.cross_heap_frees", [hs] {
        return hs->cross_heap_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.canary_stomps", [hs] {
        return hs->canary_stomps.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.guard_allocs", [hs] {
        return hs->guard_allocs.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.guard_frees", [hs] {
        return hs->guard_frees.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.guard_overflows", [hs] {
        return hs->guard_overflows.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.guard_uaf", [hs] {
        return hs->guard_uaf.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.quarantine_pushes", [hs] {
        return hs->quarantine_pushes.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.quarantine_evictions", [hs] {
        return hs->quarantine_evictions.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.quarantine_uaf", [hs] {
        return hs->quarantine_uaf.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.leaked_blocks", [hs] {
        return hs->leaked_blocks.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.reports", [hs] {
        return hs->reports.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.hardening.quarantine_depth", [this] {
        return uint64_t(hardening_.quarantineDepth());
    });
    ctl_.registerName("stats.hardening.guard_live", [this] {
        return uint64_t(hardening_.guardLive());
    });
    ctl_.registerName("stats.hardening.guard_watched", [this] {
        return uint64_t(hardening_.guardWatched());
    });
    ctl_.registerName("stats.hardening.tx_staged_frees", [hs] {
        return hs->tx_staged_frees.load(std::memory_order_relaxed);
    });

    // Transaction layer (PR 6): lifecycle counters, rejections, and
    // the live open/staged depths.
    const TxStats *txs = &tx_mgr_.stats();
    ctl_.registerName("stats.tx.begins", [txs] {
        return txs->begins.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.commits", [txs] {
        return txs->commits.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.aborts", [txs] {
        return txs->aborts.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.ops_alloc", [txs] {
        return txs->ops_alloc.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.ops_free", [txs] {
        return txs->ops_free.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.ops_write", [txs] {
        return txs->ops_write.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.rejected", [txs] {
        return txs->rejected.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.oversize", [txs] {
        return txs->oversize.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.plain_ops_rejected", [txs] {
        return txs->plain_ops_rejected.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.tx.recovered_committed",
                      [txs] { return txs->recovered_committed; });
    ctl_.registerName("stats.tx.recovered_rolled_back",
                      [txs] { return txs->recovered_rolled_back; });
    ctl_.registerName("stats.tx.open",
                      [this] { return tx_mgr_.openCount(); });
    ctl_.registerName("stats.tx.staged_blocks",
                      [this] { return tx_mgr_.stagedCount(); });

    // Lock-free small-allocation fast path (PR 9, DESIGN.md §14).
    const FastPathStats *fps = &fp_stats_;
    ctl_.registerName("stats.fastpath.reserve_hits", [fps] {
        return fps->reserve_hits.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.fastpath.reserve_misses", [fps] {
        return fps->reserve_misses.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.fastpath.cas_retries", [fps] {
        return fps->cas_retries.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.fastpath.region_steals", [fps] {
        return fps->region_steals.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.fastpath.refill_searches", [fps] {
        return fps->refill_searches.load(std::memory_order_relaxed);
    });
    ctl_.registerName("stats.fastpath.locked_fallbacks", [fps] {
        return fps->locked_fallbacks.load(std::memory_order_relaxed);
    });

    // KV service (kv_stats.h, DESIGN.md §13). Readers dereference the
    // attach pointer at *read* time, so the subtree works no matter
    // whether the store mounted before or after the registry was
    // built, and reports zeros when none is mounted.
    {
        auto kv = [this](auto member) {
            return [this, member]() -> uint64_t {
                const KvStats *s = kvStats();
                return s ? (s->*member).load(std::memory_order_relaxed)
                         : 0;
            };
        };
        ctl_.registerName("stats.kv.inserts", kv(&KvStats::inserts));
        ctl_.registerName("stats.kv.updates", kv(&KvStats::updates));
        ctl_.registerName("stats.kv.erases", kv(&KvStats::erases));
        ctl_.registerName("stats.kv.rmws", kv(&KvStats::rmws));
        ctl_.registerName("stats.kv.gets", kv(&KvStats::gets));
        ctl_.registerName("stats.kv.hits", kv(&KvStats::hits));
        ctl_.registerName("stats.kv.misses", kv(&KvStats::misses));
        ctl_.registerName("stats.kv.scans", kv(&KvStats::scans));
        ctl_.registerName("stats.kv.scanned_records",
                          kv(&KvStats::scanned_records));
        ctl_.registerName("stats.kv.corrupt_records",
                          kv(&KvStats::corrupt_records));
        ctl_.registerName("stats.kv.rejected_unhealthy",
                          kv(&KvStats::rejected_unhealthy));
        ctl_.registerName("stats.kv.rejected_quota",
                          kv(&KvStats::rejected_quota));
        ctl_.registerName("stats.kv.failed_allocs",
                          kv(&KvStats::failed_allocs));
        ctl_.registerName("stats.kv.records", kv(&KvStats::records));
        ctl_.registerName("stats.kv.key_bytes",
                          kv(&KvStats::key_bytes));
        ctl_.registerName("stats.kv.value_bytes",
                          kv(&KvStats::value_bytes));
        ctl_.registerName("stats.kv.buckets", kv(&KvStats::buckets));
        ctl_.registerName("stats.kv.rebuilds", kv(&KvStats::rebuilds));
        ctl_.registerName("stats.kv.rebuilt_records",
                          kv(&KvStats::rebuilt_records));
    }

    // Whole-heap space accounting.
    PmDevice *dev = &dev_;
    ctl_.registerName("stats.heap.device_bytes",
                      [dev] { return uint64_t(dev->size()); });
    ctl_.registerName("stats.heap.mapped_bytes",
                      [dev] { return uint64_t(dev->mappedBytes()); });
    ctl_.registerName("stats.heap.committed_bytes", [dev] {
        return uint64_t(dev->committedBytes());
    });
    ctl_.registerName("stats.heap.peak_committed_bytes", [dev] {
        return uint64_t(dev->peakCommittedBytes());
    });
    ctl_.registerName("stats.heap.arenas", [this] {
        return uint64_t(arenas_.size());
    });
    ctl_.registerName("stats.heap.threads", [this] {
        return uint64_t(attached_threads_.load());
    });
    ctl_.registerName("stats.heap.stat_shards",
                      [tel] { return uint64_t(tel->shardCount()); });
}

const CtlRegistry &
NvAlloc::ctl()
{
    std::call_once(ctl_once_, [this] { buildCtlRegistry(); });
    return ctl_;
}

NvStatus
NvAlloc::ctlRead(const char *name, uint64_t *out)
{
    std::call_once(ctl_once_, [this] { buildCtlRegistry(); });
    // "maintenance.<action>" names are commands, not statistics: they
    // are dispatched here instead of being registered, because registry
    // readers must be side-effect free (forEach/json invoke them all).
    static const char kMaintPrefix[] = "maintenance.";
    if (name && std::strncmp(name, kMaintPrefix,
                             sizeof(kMaintPrefix) - 1) == 0) {
        NvStatus s =
            maintenanceControl(name + sizeof(kMaintPrefix) - 1);
        if (s == NvStatus::Ok && out)
            *out = maint_.stats().slices.load(std::memory_order_relaxed);
        return s == NvStatus::Ok ? NvStatus::Ok : NvStatus::UnknownCtl;
    }
    // "health.restore" is the ctl spelling of restoreHealth(): audit,
    // and return to Serving only when clean. Like the maintenance
    // commands it is dispatched, never registered. The out-param
    // reports the post-call state so callers see where they landed.
    if (name && std::strcmp(name, "health.restore") == 0) {
        NvStatus s = restoreHealth();
        if (out)
            *out = uint64_t(health_.load(std::memory_order_relaxed));
        return s == NvStatus::Ok ? NvStatus::Ok : NvStatus::UnknownCtl;
    }
    // "health.patrol" runs one patrol batch on the caller's thread
    // (tests and tools without a maintenance thread drive the scrubber
    // through this); reads back the items examined.
    if (name && std::strcmp(name, "health.patrol") == 0) {
        uint64_t items = patrolSlice();
        if (out)
            *out = items;
        return NvStatus::Ok;
    }
    uint64_t v = 0;
    if (ctl_.read(name, v) != CtlStatus::Ok)
        return NvStatus::UnknownCtl;
    if (out)
        *out = v;
    return NvStatus::Ok;
}

std::string
NvAlloc::statsJson(std::string_view prefix)
{
    std::call_once(ctl_once_, [this] { buildCtlRegistry(); });
    return ctl_.json(prefix);
}

} // namespace nvalloc
