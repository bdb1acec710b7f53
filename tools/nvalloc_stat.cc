/**
 * @file
 * nvalloc_stat: command-line heap statistics viewer.
 *
 * The emulated PM device lives in anonymous memory, so — like
 * nvalloc_fsck — the tool builds a heap, runs a mixed workload on it,
 * and then serves the telemetry ctl tree over the result. Everything it
 * prints is a ctl dump: the whole tree, or with `--ctl NAME` the leaf
 * or subtree NAME selects (the same registry an embedding application
 * reads via nvalloc_ctl()). The workload flags (--hardening, --tx,
 * --health, --kv) only choose what traffic populates the tree.
 *
 * Exit status: 0 = ok, 1 = unknown ctl name, 2 = usage error or the
 * heap refused to open.
 *
 *   nvalloc_stat                      # full name/value table
 *   nvalloc_stat --json               # whole-heap JSON snapshot
 *   nvalloc_stat --ctl stats.alloc.small
 *   nvalloc_stat --ctl stats.arena.0  # every leaf under a prefix
 *   nvalloc_stat --health --ctl stats.health --json
 *   nvalloc_stat --reopen --trace 64  # recovery stats + event trace
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "churn.h"
#include "kv/kv_store.h"
#include "nvalloc/nvalloc.h"

using namespace nvalloc;

namespace {

struct Options
{
    bool gc = false;
    bool base = false; //!< in-place descriptors instead of the log
    bool json = false;
    bool reopen = false; //!< dirty-restart + recover before reporting
    bool hardening = false; //!< full hardening + hostile-free traffic
    bool tx = false;        //!< committed + aborted transactions
    bool health = false;    //!< one full patrol-scrub pass
    bool kv = false;        //!< KV service traffic
    size_t trace = 0;    //!< per-thread event-ring capacity
    size_t device_mb = 256;
    unsigned ops = 20000;
    MaintenanceMode maintenance = MaintenanceMode::Off;
    bool step_maintenance = false; //!< a slice every 512 workload ops
    std::vector<std::string> ctls; //!< --ctl leaves/prefixes, in order
    std::vector<std::string> maint_actions; //!< --maint, in order
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --gc           report on the NVAlloc-GC variant\n"
        "  --base         in-place descriptors (no bookkeeping log)\n"
        "  --device-mb N  emulated device size in MB (default 256)\n"
        "  --ops N        workload operations before reporting\n"
        "  --reopen       dirty-restart and recover before reporting\n"
        "  --hardening    enable canaries/quarantine/guard sampling\n"
        "                 and mix hostile frees into the workload\n"
        "                 (stats.hardening.*)\n"
        "  --tx           group part of the workload into committed\n"
        "                 and aborted transactions (stats.tx.*)\n"
        "  --health       run a full patrol-scrub pass after the\n"
        "                 workload (stats.health.*, stats.scrub.*)\n"
        "  --kv           open the KV service on the heap and run\n"
        "                 mixed put/get/erase traffic (stats.kv.*;\n"
        "                 LOG variant only)\n"
        "  --trace N      arm per-thread event rings of N events and\n"
        "                 dump the merged trace\n"
        "  --ctl NAME     print every leaf under NAME, a leaf or a\n"
        "                 prefix (repeatable)\n"
        "  --json         one JSON snapshot: the whole tree, or the\n"
        "                 subtree of a single --ctl\n"
        "  --maintenance M  background maintenance: off|manual|thread\n"
        "                 (manual steps a slice every 512 workload ops)\n"
        "  --maint A      run a maintenance action after the workload:\n"
        "                 pause|resume|step|wake (repeatable)\n",
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
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--reopen") {
            o.reopen = true;
        } else if (a == "--hardening") {
            o.hardening = true;
        } else if (a == "--tx") {
            o.tx = true;
        } else if (a == "--health") {
            o.health = true;
        } else if (a == "--kv") {
            o.kv = true;
        } else if (a == "--ctl") {
            const char *v = next();
            if (!v)
                return false;
            o.ctls.push_back(v);
        } else if (a == "--trace") {
            const char *v = next();
            if (!v)
                return false;
            o.trace = std::strtoul(v, nullptr, 0);
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
        } else if (a == "--maintenance") {
            const char *v = next();
            if (!v)
                return false;
            // manual: the default mode, stepped by the tool itself.
            o.step_maintenance = std::strcmp(v, "manual") == 0;
            if (std::strcmp(v, "thread") == 0)
                o.maintenance = MaintenanceMode::Thread;
            else if (o.step_maintenance || std::strcmp(v, "off") == 0)
                o.maintenance = MaintenanceMode::Off;
            else
                return false;
        } else if (a == "--maint") {
            const char *v = next();
            if (!v)
                return false;
            o.maint_actions.push_back(v);
        } else {
            return false;
        }
    }
    // One JSON document: the whole tree or a single subtree.
    return o.device_mb >= 16 && !(o.json && o.ctls.size() > 1);
}

NvAllocConfig
makeConfig(const Options &o)
{
    NvAllocConfig cfg = toolConfig(o.gc, o.base);
    cfg.trace_ring_capacity = o.trace;
    cfg.maintenance_mode = o.maintenance;
    if (o.hardening) {
        cfg.redzone_canaries = true;
        cfg.quarantine_depth = 32;
        cfg.guard_sample_rate = 128;
    }
    return cfg;
}

/** The tools' churn (churn.h). Under --maintenance manual a slice is
 *  stepped every 512 operations, so the stats.maintenance.* family is
 *  populated deterministically. With --tx, every 256th operation runs
 *  as a small transaction (alternating commit and abort) that
 *  allocates, frees a live object and writes a root word, so the
 *  stats.tx.* family is populated. */
void
runWorkload(NvAlloc &alloc, ThreadCtx &ctx, const Options &o)
{
    bool hostile = alloc.config().quarantine_depth > 0;
    runChurn(alloc, ctx, o.ops, [&](unsigned i, Churn &c) {
        if (i % 512 == 511 && o.step_maintenance)
            alloc.maintenance().step();
        if (o.tx && i % 256 == 255) {
            alloc.txBegin(ctx);
            uint64_t off = alloc.txAlloc(ctx, 64 + (i & 0xc0), nullptr);
            size_t pick = c.live.empty() ? 0 : c.rnd() % c.live.size();
            bool freed = !c.live.empty() &&
                         alloc.txFree(ctx, c.live[pick]) == NvStatus::Ok;
            alloc.txWrite(ctx, alloc.rootWord(0), i);
            if (i % 512 == 255 && off != 0) {
                alloc.txCommit(ctx);
                if (freed) {
                    c.live[pick] = c.live.back();
                    c.live.pop_back();
                }
                c.live.push_back(off);
            } else {
                alloc.txAbort(ctx);
            }
            return true;
        }
        if (hostile && i % 1024 == 1023 && !c.live.empty()) {
            // Hostile-free traffic (--hardening): a double free and an
            // interior-pointer free, both rejected and counted.
            uint64_t off = c.live[c.rnd() % c.live.size()];
            alloc.freeOffset(ctx, off + 1, nullptr);
            alloc.freeOffset(ctx, off, nullptr);
            alloc.freeOffset(ctx, off, nullptr);
            c.live.erase(std::find(c.live.begin(), c.live.end(), off));
            return true;
        }
        return false;
    });
}

void
dumpTrace(NvAlloc &alloc)
{
    alloc.telemetry().stopTracing();
    std::vector<TraceEvent> events;
    uint64_t dropped = alloc.telemetry().drainEvents(events);
    std::printf("trace: %zu event(s), %llu dropped\n", events.size(),
                (unsigned long long)dropped);
    for (const TraceEvent &e : events) {
        std::printf("  %12llu shard=%u %-12s arg=0x%llx",
                    (unsigned long long)e.ts, e.shard,
                    traceOpName(e.op), (unsigned long long)e.arg);
        if (e.size_class != 0xff)
            std::printf(" class=%u", e.size_class);
        if (e.outcome != 0)
            std::printf(" status=%u", e.outcome);
        std::printf("\n");
    }
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

    PmDeviceConfig dcfg;
    dcfg.size = o.device_mb << 20;
    PmDevice dev(dcfg);

    if (o.reopen) {
        // Build a first life whose shutdown is dirty, so the reporting
        // instance below runs failure recovery and the stats.recovery.*
        // family is populated.
        auto first_h = NvAlloc::openOrDie(dev, makeConfig(o));
        NvAlloc &first = *first_h;
        ThreadCtx *ctx = first.attachThread();
        if (!ctx) {
            std::fprintf(stderr, "stat: could not attach build thread\n");
            return 2;
        }
        runWorkload(first, *ctx, o);
        first.dirtyRestart();
    }

    auto alloc_h = NvAlloc::openOrDie(dev, makeConfig(o));
    NvAlloc &alloc = *alloc_h;
    if (alloc.openStatus() != NvStatus::Ok) {
        std::fprintf(stderr, "stat: heap failed to open: %s\n",
                     nvStatusName(alloc.openStatus()));
        return 2;
    }
    if (!o.reopen) {
        ThreadCtx *ctx = alloc.attachThread();
        if (!ctx) {
            std::fprintf(stderr, "stat: could not attach thread\n");
            return 2;
        }
        runWorkload(alloc, *ctx, o);
        alloc.detachThread(ctx);
    }

    if (o.health) {
        // One full patrol pass: step slices until the cursor wraps
        // (bounded — each slice covers a fixed number of items).
        uint64_t passes = 0;
        alloc.ctlRead("stats.scrub.passes", &passes);
        for (unsigned s = 0; s < 4096; ++s) {
            alloc.patrolSlice();
            uint64_t now = 0;
            alloc.ctlRead("stats.scrub.passes", &now);
            if (now > passes)
                break;
        }
    }

    // The store feeds the stats.kv.* subtree while mounted and detaches
    // on destruction, so it must outlive the reporting below.
    std::unique_ptr<KvStore> kv;
    if (o.kv) {
        if (o.gc) {
            std::fprintf(stderr,
                         "stat: --kv needs the tx layer (LOG variant)\n");
            return 2;
        }
        KvOptions ko;
        ko.buckets = 512;
        ko.root_index = 1; // root 0 may anchor future workload state
        KvStatus why = KvStatus::Ok;
        kv = KvStore::open(alloc, ko, &why);
        if (!kv) {
            std::fprintf(stderr, "stat: kv open failed: %s\n",
                         kvStatusName(why));
            return 2;
        }
        ThreadCtx *ctx = alloc.attachThread();
        if (!ctx) {
            std::fprintf(stderr, "stat: could not attach kv thread\n");
            return 2;
        }
        unsigned records = o.ops / 8 < 64 ? 64 : o.ops / 8;
        char key[32];
        std::string v;
        for (unsigned i = 0; i < records; ++i) {
            std::snprintf(key, sizeof key, "stat-%u", i);
            std::string val(i % 7 == 0 ? 2048 : 64,
                            char('a' + i % 26));
            kv->put(*ctx, key, val);
        }
        for (unsigned i = 0; i < records; ++i) {
            std::snprintf(key, sizeof key, "stat-%u", i % records);
            kv->get(key, &v);
            if (i % 3 == 0) {
                std::snprintf(key, sizeof key, "stat-%u", i);
                kv->put(*ctx, key, "updated");
            }
            if (i % 5 == 0) {
                std::snprintf(key, sizeof key, "miss-%u", i);
                kv->get(key, &v);
            }
        }
        for (unsigned i = 0; i < records; i += 4) {
            std::snprintf(key, sizeof key, "stat-%u", i);
            kv->erase(*ctx, key);
        }
        alloc.detachThread(ctx);
    }

    for (const std::string &action : o.maint_actions) {
        if (alloc.maintenanceControl(action.c_str()) != NvStatus::Ok) {
            std::fprintf(stderr, "stat: unknown maintenance action: %s\n",
                         action.c_str());
            return 2;
        }
    }

    const CtlRegistry &ctl = alloc.ctl();
    int rc = 0;
    for (const std::string &name : o.ctls) {
        if (ctl.names(name).empty()) {
            std::fprintf(stderr, "stat: unknown ctl name: %s\n",
                         name.c_str());
            rc = 1;
        }
    }
    if (o.json) {
        std::printf("%s\n",
                    alloc.statsJson(o.ctls.empty() ? "" : o.ctls[0])
                        .c_str());
    } else if (!o.ctls.empty()) {
        for (const std::string &prefix : o.ctls) {
            for (const std::string &name : ctl.names(prefix)) {
                uint64_t v = 0;
                ctl.read(name, v);
                std::printf("%s: %llu\n", name.c_str(),
                            (unsigned long long)v);
            }
        }
    } else {
        ctl.forEach([](const std::string &name, uint64_t v) {
            std::printf("%-40s %llu\n", name.c_str(),
                        (unsigned long long)v);
        });
    }

    if (o.trace > 0 && !o.json)
        dumpTrace(alloc);
    return rc;
}
