/**
 * @file
 * The heap's introspection registry: every exported statistic is
 * registered here under its dotted ctl name (see telemetry/ctl.h).
 *
 * Three kinds of sources feed the tree:
 *  - the sharded telemetry counters, where a heap counts its events
 *    (telemetry/counters.h), registered in one loop;
 *  - read-time sums, differences and second names over counts kept
 *    elsewhere (per-class and per-reason families, the arenas' own
 *    Stats, the PM model's flush counts, RecoveryInfo);
 *  - gauges read from the object that owns them (live depths, modes,
 *    PmDevice space, the large allocator's extent and region state).
 *
 * The registry is built lazily on the first ctl use and is immutable
 * afterwards; readers are called with no heap lock held. Most only
 * load atomics; the hardening and large-path gauges and the flush
 * leaves take their owner's lock briefly, so introspection never
 * blocks allocation for longer than one gauge read.
 */

#include "nvalloc/nvalloc.h"

#include <algorithm>
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
    // per-class / per-reason families plus tcache.miss (one counter
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

    // Failed allocations by NvStatus reason ("region-table-full" reads
    // as stats.alloc.failed_by.region_table_full); the total and its
    // degradation-machine alias sum the family.
    for (unsigned r = 1; r < kNumNvStatuses; ++r) {
        std::string reason = nvStatusName(NvStatus(r));
        std::replace(reason.begin(), reason.end(), '-', '_');
        ctl_.registerName("stats.alloc.failed_by." + reason,
                          [tel, r] { return tel->failedBy(r); });
    }
    for (const char *name :
         {"stats.alloc.failed", "stats.degraded.failed_allocs"})
        ctl_.registerName(name, [tel] { return tel->failedAllocs(); });

    // Second names for events counted once under another name.
    ctl_.registerName("stats.degraded.invalid_frees", [tel] {
        return tel->total(StatCounter::InvalidFree);
    });
    // Every retired free passes the validator; guard frees are counted
    // apart from it.
    ctl_.registerName("stats.hardening.validated_frees", [tel] {
        uint64_t guard = tel->total(StatCounter::GuardFree);
        uint64_t frees =
            tel->smallFrees() + tel->total(StatCounter::FreeLarge);
        return frees > guard ? frees - guard : 0;
    });

    // Every begun transaction ends in one commit or abort (detach and
    // shutdown abort an open one). Reading the ends first means a
    // racing begin can only raise the difference.
    ctl_.registerName("stats.tx.open", [tel] {
        uint64_t ended = tel->total(StatCounter::TxCommit) +
                         tel->total(StatCounter::TxAbort);
        uint64_t begun = tel->total(StatCounter::TxBegin);
        return begun > ended ? begun - ended : 0;
    });

    // Flushes by class, and fences: the PM model counts them for the
    // device's whole life, and this heap's leaves read what it has
    // counted since the heap opened (clamped at zero, should a
    // benchmark reset the model under an open heap).
    {
        using Field = uint64_t FlushClassCounts::*;
        const std::pair<const char *, Field> kFlushLeaves[] = {
            {"total", &FlushClassCounts::total},
            {"reflush", &FlushClassCounts::reflush},
            {"sequential", &FlushClassCounts::sequential},
            {"random", &FlushClassCounts::random},
            {"xpline_hit", &FlushClassCounts::xpline_hit},
            {"fences", &FlushClassCounts::fences},
        };
        for (const auto &[leaf, field] : kFlushLeaves) {
            ctl_.registerName(std::string("stats.flush.") + leaf,
                              [this, field = field] {
                                  uint64_t now = dev_.model().counts().*field;
                                  uint64_t base = flush_base_.*field;
                                  return now > base ? now - base : 0;
                              });
        }
    }

    // Media bookings behind the media server's horizon, counted by
    // the model like the flushes and read the same way.
    ctl_.registerName("stats.degraded.media_late_bookings", [this] {
        uint64_t now = dev_.model().mediaLateBookings();
        return now > media_late_base_ ? now - media_late_base_ : 0;
    });

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

    // Per-arena family: slab lifecycle from the arena's own Stats.
    using ArenaCount = std::atomic<uint64_t> Arena::Stats::*;
    const std::pair<const char *, ArenaCount> kArenaCounts[] = {
        {"slabs_created", &Arena::Stats::slabs_created},
        {"slabs_released", &Arena::Stats::slabs_released},
        {"morphs", &Arena::Stats::morphs},
        {"refills", &Arena::Stats::refills},
    };
    for (unsigned i = 0; i < arenas_.size(); ++i) {
        Arena *a = arenas_[i].get();
        std::string base = "stats.arena." + std::to_string(i) + ".";
        ctl_.registerName(base + "threads", [a] {
            return uint64_t(a->thread_count.load());
        });
        for (const auto &[leaf, field] : kArenaCounts) {
            ctl_.registerName(base + leaf, [a, field = field] {
                return (a->stats().*field).load(std::memory_order_relaxed);
            });
        }
    }

    // Heap-wide slab lifecycle: the arenas count it (per arena, for
    // nvbench), these names sum them. A locked refill is the fast
    // path's refill search.
    auto arenaSum = [this](ArenaCount field) {
        return [this, field] {
            uint64_t sum = 0;
            for (const auto &a : arenas_)
                sum += (a->stats().*field).load(std::memory_order_relaxed);
            return sum;
        };
    };
    ctl_.registerName("stats.slab.created",
                      arenaSum(&Arena::Stats::slabs_created));
    ctl_.registerName("stats.slab.released",
                      arenaSum(&Arena::Stats::slabs_released));
    ctl_.registerName("stats.slab.morphs", arenaSum(&Arena::Stats::morphs));
    for (const char *name :
         {"stats.slab.refills", "stats.fastpath.refill_searches"})
        ctl_.registerName(name, arenaSum(&Arena::Stats::refills));

    // Large-path gauges, each read under the large allocator's lock.
    {
        LargeAllocator *large = &large_;
        using Getter = uint64_t (LargeAllocator::*)() const;
        const std::pair<const char *, Getter> kLargeGauges[] = {
            {"activated_bytes", &LargeAllocator::activatedBytes},
            {"reclaimed_bytes", &LargeAllocator::reclaimedBytes},
            {"retained_bytes", &LargeAllocator::retainedBytes},
            {"region_slots_used", &LargeAllocator::regionSlotsUsed},
            {"region_slots_total", &LargeAllocator::regionSlotsTotal},
            {"largest_free_extent", &LargeAllocator::largestFreeExtent},
        };
        for (const auto &[leaf, get] : kLargeGauges) {
            ctl_.registerName(std::string("stats.large.") + leaf,
                              [large, get = get] {
                                  VLockGuard g(large->lock());
                                  return (large->*get)();
                              });
        }
    }

    // Bookkeeping log gauges, and what replay rejected (recorded in
    // RecoveryInfo).
    const RecoveryInfo *rec = &recovery_;
    if (usesBookkeepingLog()) {
        BookkeepingLog *log = &log_;
        ctl_.registerName("stats.log.live_entries", [log] {
            return uint64_t(log->liveEntries());
        });
        ctl_.registerName("stats.log.active_chunks", [log] {
            return uint64_t(log->activeChunks());
        });
        ctl_.registerName("stats.log.replay.entries_rejected",
                          [rec] { return rec->log_entries_rejected; });
        ctl_.registerName("stats.log.replay.chunks_rejected",
                          [rec] { return rec->log_chunks_rejected; });
    }

    // Degradation machine.
    ctl_.registerName("stats.mode.current", [this] {
        return uint64_t(mode_.load(std::memory_order_relaxed));
    });

    // What the last recovery did (static after open).
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
    ctl_.registerName("stats.tx.recovered_committed",
                      [rec] { return rec->tx_committed; });
    ctl_.registerName("stats.tx.recovered_rolled_back",
                      [rec] { return rec->tx_rolled_back; });

    // Live state of the maintenance service, the health machine, the
    // hardening containers (those three take the hardening mutex
    // briefly) and the transaction layer's staged registry.
    ctl_.registerName("stats.maintenance.mode", [this] {
        return uint64_t(maint_.mode());
    });
    ctl_.registerName("stats.maintenance.paused", [this] {
        return uint64_t(maint_.paused());
    });
    ctl_.registerName("stats.health.state", [this] {
        return uint64_t(health_.load(std::memory_order_relaxed));
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
    ctl_.registerName("stats.tx.staged_blocks",
                      [this] { return tx_mgr_.stagedCount(); });

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
            *out = tel_.total(StatCounter::MaintSlice);
        return s == NvStatus::Ok ? NvStatus::Ok : NvStatus::UnknownCtl;
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
