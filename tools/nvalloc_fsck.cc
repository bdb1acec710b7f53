/**
 * @file
 * nvalloc_fsck: command-line heap checker.
 *
 * The emulated PM device lives in anonymous memory, so there is no
 * heap file to open; instead the tool builds a heap, optionally runs a
 * workload, optionally injects damage (a dirty restart, poisoned
 * lines, a flipped bitmap bit, a torn WAL entry), reopens it, and runs
 * the HeapAuditor over the result — the same audit + repair pipeline
 * an fsck over a real heap file would run.
 *
 * Exit status contract (asserted by CI):
 *   0 = clean: the audit found nothing to fix;
 *   1 = repaired: violations were found AND the repair pass (--repair)
 *       brought the final audit back to clean;
 *   2 = unrecoverable/degraded: the heap refused to open, or
 *       violations remain (no --repair, or repair could not derive a
 *       fix).
 *
 *   nvalloc_fsck                       # clean build + audit -> 0
 *   nvalloc_fsck --flip-bitmap --repair              # -> 1
 *   nvalloc_fsck --flip-bitmap                       # -> 2
 *   nvalloc_fsck --pool --json         # pool counters + per-member
 *                                      # verdict, audit, stats
 *
 * --json prints AuditReports and ctl snapshots (NvAlloc::statsJson)
 * only; every live counter, health state included, is read from the
 * "stats" snapshot.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "churn.h"
#include "common/json.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"
#include "nvalloc/pool.h"

using namespace nvalloc;

namespace {

struct Options
{
    bool gc = false;
    bool base = false; //!< in-place descriptors instead of the log
    bool crash = false;
    bool repair = false;
    bool quiet = false;
    bool json = false;
    bool flip_bitmap = false;
    bool corrupt_wal = false;
    bool pool = false;
    unsigned poison_free = 0;
    size_t device_mb = 256;
    unsigned ops = 20000;
};

/** The CI-asserted exit-code contract. */
int
verdict(bool initial_clean, bool final_clean)
{
    if (!final_clean)
        return 2; // unrecoverable/degraded
    return initial_clean ? 0 : 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --gc             audit the NVAlloc-GC variant\n"
        "  --base           in-place descriptors (no bookkeeping log)\n"
        "  --device-mb N    emulated device size in MB (default 256)\n"
        "  --ops N          workload operations before the audit\n"
        "  --crash          dirty-restart mid-life, recover, then audit\n"
        "  --poison-free N  poison N free lines before the audit\n"
        "  --flip-bitmap    flip a stray bit in one slab bitmap\n"
        "  --corrupt-wal    plant a torn WAL entry\n"
        "  --repair         repair after the audit, then re-audit\n"
        "  --pool           audit a 3-tenant heap pool: per-member\n"
        "                   reports; damage flags hit tenant0 only\n"
        "  --quiet          print only the verdict\n"
        "  --json           audit report(s) + ctl stats snapshot\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--gc") {
            o.gc = true;
        } else if (a == "--base") {
            o.base = true;
        } else if (a == "--crash") {
            o.crash = true;
        } else if (a == "--repair") {
            o.repair = true;
        } else if (a == "--quiet") {
            o.quiet = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--flip-bitmap") {
            o.flip_bitmap = true;
        } else if (a == "--corrupt-wal") {
            o.corrupt_wal = true;
        } else if (a == "--pool") {
            o.pool = true;
        } else if (a == "--poison-free") {
            const char *v = next();
            if (!v)
                return false;
            o.poison_free = unsigned(std::strtoul(v, nullptr, 0));
        } else if (a == "--device-mb") {
            const char *v = next();
            if (!v)
                return false;
            o.device_mb = std::strtoul(v, nullptr, 0);
        } else if (a == "--ops") {
            const char *v = next();
            if (!v)
                return false;
            o.ops = unsigned(std::strtoul(v, nullptr, 0));
        } else {
            return false;
        }
    }
    return o.device_mb >= 16;
}

/**
 * Pool mode: three tenant heaps behind one HeapPool. Damage flags hit
 * tenant0 only; the patrol scrubber is stepped so detection and the
 * health escalation show up in the per-member reports, and --repair
 * goes through HeapPool::restore (repair + health restore) instead of
 * a bare auditor pass. Exit code follows the same contract: 0 when no
 * member ever had a finding, 1 when findings were fully repaired and
 * every member is back to Serving, 2 otherwise.
 */
int
poolMain(const Options &o)
{
    PmDeviceConfig dcfg;
    dcfg.size = o.device_mb << 20;
    static const char *kNames[] = {"tenant0", "tenant1", "tenant2"};
    // Devices must outlive the pool (one live heap per device).
    std::vector<std::unique_ptr<PmDevice>> devs;
    HeapPool pool;
    std::vector<NvAlloc *> heaps;
    for (const char *name : kNames) {
        devs.emplace_back(new PmDevice(dcfg));
        HeapPool::MemberResult r = pool.open(name, *devs.back(),
                                             toolConfig(o.gc, o.base));
        if (!r.heap) {
            std::fprintf(stderr, "fsck: pool open %s failed: %s\n",
                         name, nvStatusName(r.status));
            return 2;
        }
        heaps.push_back(r.heap);
    }
    for (NvAlloc *h : heaps) {
        ThreadCtx *ctx = h->attachThread();
        if (!ctx)
            return 2;
        runChurn(*h, *ctx, o.ops / 4);
        h->detachThread(ctx);
    }

    if (o.flip_bitmap) {
        // Damage a quiesced slab (no morph in flight, nothing lent to
        // a tcache): --repair must be able to rebuild its bitmap, so
        // the exit-code contract stays 1 and not 2.
        bool done = false;
        for (unsigned i = 0; i < heaps[0]->numArenas() && !done; ++i) {
            heaps[0]->arena(i).forEachSlab([&](VSlab *slab) {
                if (done || slab->morphing() ||
                    slab->lentBlocks() != 0)
                    return;
                slab->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;
                done = true;
            });
        }
    }
    if (o.corrupt_wal) {
        auto *e = static_cast<WalEntry *>(
            devs[0]->at(heaps[0]->walRingOffset(0)));
        e->block_op = (uint64_t(0x1234) << 2) | kWalAlloc;
        e->seq = 1;
        e->where_off = kWalNoWhere;
        e->size = 64;
        e->crc = walEntryCrc(*e) ^ 0xdeadbeef;
    }

    // Step the patrol scrubber over every member so detection (and the
    // resulting health escalation on the victim) is part of the run.
    for (NvAlloc *h : heaps)
        for (unsigned s = 0; s < 64; ++s)
            h->patrolSlice();

    bool any_finding = false;
    bool all_ok = true;
    const bool text = !o.quiet && !o.json;
    std::string members;
    for (size_t i = 0; i < heaps.size(); ++i) {
        NvAlloc *h = heaps[i];
        HeapAuditor aud(*h);
        AuditReport rep = aud.audit();
        bool dirty = !rep.clean() ||
                     unsigned(h->health()) >= unsigned(HeapHealth::Degraded);
        any_finding |= dirty;
        if (dirty && o.repair) {
            pool.restore(kNames[i]);
            rep = aud.audit();
        }
        bool ok = rep.clean() &&
                  unsigned(h->health()) < unsigned(HeapHealth::Degraded);
        all_ok &= ok;
        if (o.json) {
            if (!members.empty())
                members += ",";
            members += "\"";
            members += kNames[i];
            members += "\":{\"clean\":";
            members += rep.clean() ? "true" : "false";
            members += ",\"audit\":" + rep.json();
            members += ",\"stats\":" + h->statsJson() + "}";
        }
        if (text)
            std::printf("fsck: %s: %s, health=%s\n", kNames[i],
                        rep.clean() ? "clean" : "NOT CLEAN",
                        heapHealthName(h->health()));
    }

    if (o.json) {
        const HeapPool::Stats &ps = pool.stats();
        JsonWriter w;
        auto add = [&w](const char *key, const std::atomic<uint64_t> &c) {
            w.key(key).value(c.load(std::memory_order_relaxed));
        };
        w.beginObject();
        add("opens", ps.opens);
        add("reopen_hits", ps.reopen_hits);
        add("option_mismatches", ps.option_mismatches);
        add("escalations", ps.escalations);
        add("quarantines", ps.quarantines);
        add("restores", ps.restores);
        w.endObject();
        std::printf("{\"pool\":%s,\"members\":{%s}}\n", w.str().c_str(),
                    members.c_str());
    } else if (!text) {
        std::printf("fsck: pool %s\n",
                    all_ok ? (any_finding ? "repaired" : "clean")
                           : "NOT CLEAN");
    }
    return verdict(!any_finding, all_ok);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        usage(argv[0]);
        return 2;
    }
    if (o.pool)
        return poolMain(o);

    PmDeviceConfig dcfg;
    dcfg.size = o.device_mb << 20;
    PmDevice dev(dcfg);

    // Phase 1: build a heap with real history on the device.
    {
        auto alloc_h = NvAlloc::openOrDie(dev, toolConfig(o.gc, o.base));
        NvAlloc &alloc = *alloc_h;
        ThreadCtx *ctx = alloc.attachThread();
        if (!ctx) {
            std::fprintf(stderr, "fsck: could not attach build thread\n");
            return 2;
        }
        runChurn(alloc, *ctx, o.ops);
        if (o.crash)
            alloc.dirtyRestart(); // next open takes failure recovery
        else
            alloc.detachThread(ctx);
        // ~NvAlloc: normal shutdown unless dirtyRestart neutered it.
    }

    // Phase 2: reopen (runs recovery) and inject the requested damage.
    auto alloc_h = NvAlloc::openOrDie(dev, toolConfig(o.gc, o.base));
    NvAlloc &alloc = *alloc_h;
    if (alloc.openStatus() != NvStatus::Ok) {
        std::fprintf(stderr, "fsck: heap failed to open: %s\n",
                     nvStatusName(alloc.openStatus()));
        return 2;
    }

    // Exercise the transaction layer on the reporting instance so the
    // snapshot's stats.tx.* counters are live: one committed and one
    // aborted group. Both close before the audit runs, so no
    // staged state leaks into the checks.
    {
        ThreadCtx *tctx = alloc.attachThread();
        if (tctx) {
            alloc.txBegin(*tctx);
            if (alloc.txAlloc(*tctx, 128, alloc.rootWord(7)) != 0)
                alloc.txWrite(*tctx, alloc.rootWord(6), 0x7e57);
            alloc.txCommit(*tctx);
            alloc.txBegin(*tctx);
            alloc.txAlloc(*tctx, 256, nullptr);
            alloc.txAbort(*tctx);
            alloc.detachThread(tctx);
        }
    }

    if (o.poison_free > 0) {
        // Poison lines inside reclaimed (free) extents.
        unsigned left = o.poison_free;
        alloc.large().forEachVeh([&](Veh *veh) {
            if (veh->state != Veh::State::Reclaimed)
                return;
            for (uint64_t l = 0; left > 0 && l < veh->size / kCacheLine;
                 ++l, --left)
                dev.poisonLine(veh->off + l * kCacheLine);
        });
        if (left > 0)
            std::fprintf(stderr,
                         "fsck: only %u of %u free lines poisoned "
                         "(no reclaimed extents)\n",
                         o.poison_free - left, o.poison_free);
    }
    if (o.flip_bitmap) {
        bool done = false;
        for (unsigned i = 0; i < alloc.numArenas() && !done; ++i) {
            alloc.arena(i).forEachSlab([&](VSlab *slab) {
                if (done)
                    return;
                // The last bitmap byte is beyond any geometry's mapped
                // slots, so this is a stray allocated bit.
                slab->header()->bitmap[kSlabBitmapBytes - 1] ^= 0x80;
                done = true;
            });
        }
        if (!done)
            std::fprintf(stderr, "fsck: no slab to corrupt\n");
    }
    if (o.corrupt_wal) {
        auto *e = static_cast<WalEntry *>(dev.at(alloc.walRingOffset(0)));
        e->block_op = (uint64_t(0x1234) << 2) | kWalAlloc;
        e->seq = 1;
        e->where_off = kWalNoWhere;
        e->size = 64;
        e->crc = walEntryCrc(*e) ^ 0xdeadbeef; // deliberately wrong
    }

    HeapAuditor auditor(alloc);
    AuditReport rep = auditor.audit();
    const bool initial_clean = rep.clean();
    const bool text = !o.quiet && !o.json;
    if (text)
        std::fputs(rep.summary().c_str(), stdout);

    const std::string initial_json = o.json ? rep.json() : std::string();
    std::string repair_json; // empty when no repair pass ran
    if (o.repair && (!rep.clean() || rep.poisoned_free_lines > 0)) {
        AuditReport fixed = auditor.repair();
        repair_json = fixed.json();
        if (text) {
            std::fputs("after repair:\n", stdout);
            std::fputs(fixed.summary().c_str(), stdout);
        }
        rep = auditor.audit();
        if (text)
            std::fputs(rep.summary().c_str(), stdout);
    }

    if (o.json) {
        // Component documents are already JSON; splice them together
        // rather than re-walking the structures through a writer.
        std::string doc = "{\"clean\":";
        doc += rep.clean() ? "true" : "false";
        doc += ",\"audit\":" + initial_json;
        if (!repair_json.empty())
            doc += ",\"repair\":" + repair_json +
                   ",\"final_audit\":" + rep.json();
        doc += ",\"stats\":" + alloc.statsJson() + "}";
        std::printf("%s\n", doc.c_str());
        return verdict(initial_clean, rep.clean());
    }

    if (!rep.clean()) {
        std::printf("fsck: NOT CLEAN (%llu violations)\n",
                    (unsigned long long)rep.violations());
        return 2;
    }
    std::printf("fsck: %s\n", initial_clean ? "clean" : "repaired");
    return verdict(initial_clean, true);
}
