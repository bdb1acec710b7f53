/**
 * @file
 * Pool containment soak: the chaos harness against a 4-tenant HeapPool
 * (DESIGN.md §12).
 *
 * One hostile tenant injects the same 12 trouble classes as the
 * single-heap soak (tools/chaos_harness.h) into *its own* heap
 * mid-churn, while three sibling tenants run plain mutator traffic.
 * After every round the harness asserts the pool-level blast-radius
 * contract:
 *
 *  - the victim was detected: hardened-free classes escalate its
 *    health at the faulting operation, metadata classes within a
 *    bounded number of patrol-scrub slices (once per soak a stray
 *    bitmap bit rides along with the header smash so the
 *    patrol-unrepairable path — Quarantined — is exercised too);
 *  - while Degraded/Quarantined the victim refuses new mutations
 *    (fault_containment is forced by the pool);
 *  - every sibling kept serving: zero failed allocations
 *    (stats.degraded.failed_allocs unmoved), health Serving, heap
 *    audits clean — including across the victim's crash rounds, and
 *    including a fresh member opened while the victim sits
 *    quarantined;
 *  - the pool converges: HeapPool::restore() returns the victim to
 *    Serving every round (crash rounds go through HeapPool::reopen(),
 *    i.e. member-local recovery, first), and the final sweep frees
 *    every published block of every tenant and audits all members
 *    clean.
 *
 * Deterministic for a given ChaosOptions. Shared by nvalloc_chaos.cc
 * (--pool) and tests/test_pool.cc (ctest registration, including the
 * soak-labeled long run).
 */

#ifndef NVALLOC_TOOLS_POOL_CHAOS_HARNESS_H
#define NVALLOC_TOOLS_POOL_CHAOS_HARNESS_H

#include <memory>

#include "chaos_harness.h"
#include "nvalloc/pool.h"

namespace nvalloc {

class PoolChaosHarness : public ChaosHarness
{
  public:
    static constexpr unsigned kTenants = 4; //!< 1 hostile + 3 siblings
    /** Patrol-slice budget for detecting one metadata injection: two
     *  full passes over the victim's structures, with slack. */
    static constexpr unsigned kPatrolBudget = 4096;

    explicit PoolChaosHarness(const ChaosOptions &o) : ChaosHarness(o) {}

    /** Run the pool soak; false on the first containment failure (see
     *  error()). */
    bool runPool();

    uint64_t quarantineRounds() const { return quarantine_rounds_; }

  private:
    NvAllocConfig
    poolConfig() const
    {
        NvAllocConfig cfg = config();
        // fault_containment is forced by HeapPool::open either way;
        // set it here too so the config the pool remembers is the one
        // we offered (same-config re-opens stay `existing`).
        cfg.fault_containment = true;
        return cfg;
    }

    bool
    poolFail(unsigned round, ChaosEvent ev, const std::string &msg)
    {
        return fail(round, ev, "[pool] " + msg);
    }

    uint64_t
    failedAllocs(NvAlloc &heap)
    {
        uint64_t v = 0;
        heap.ctlRead("stats.degraded.failed_allocs", &v);
        return v;
    }

    uint64_t quarantine_rounds_ = 0;
};

inline bool
PoolChaosHarness::runPool()
{
    static const char *kNames[kTenants] = {"hostile", "alpha", "beta",
                                           "gamma"};
    PmDeviceConfig dcfg;
    dcfg.size = opt_.device_mb << 20;
    dcfg.shadow = true; // the hostile tenant's crash rounds need replay

    // Devices must outlive the pool: one live heap per device.
    std::vector<std::unique_ptr<PmDevice>> devs;
    HeapPool pool;
    NvAlloc *heaps[kTenants];
    ThreadCtx *ctxs[kTenants];
    uint64_t table_off[kTenants];
    std::vector<size_t> tsizes[kTenants];

    for (unsigned t = 0; t < kTenants; ++t) {
        devs.emplace_back(new PmDevice(dcfg));
        HeapPool::MemberResult r =
            pool.open(kNames[t], *devs[t], poolConfig());
        if (!r) {
            error_ = std::string("pool open ") + kNames[t] + " failed";
            return false;
        }
        heaps[t] = r.heap;
        ctxs[t] = heaps[t]->attachThread();
        if (!ctxs[t]) {
            error_ = std::string("attach ") + kNames[t] + " failed";
            return false;
        }
        heaps[t]->mallocTo(*ctxs[t], kSlots * 8, heaps[t]->rootWord(0));
        table_off[t] = *heaps[t]->rootWord(0);
        if (!table_off[t]) {
            error_ = std::string(kNames[t]) + " slot table alloc failed";
            return false;
        }
        auto *slots = static_cast<uint64_t *>(heaps[t]->at(table_off[t]));
        std::memset(slots, 0, kSlots * 8);
        devs[t]->persistFence(slots, kSlots * 8, TimeKind::FlushData);
        tsizes[t].assign(kSlots, 0);
    }

    // The cross-heap donor (same shape as the single-heap soak): its
    // padded-high offsets are what a stale cross-tenant pointer looks
    // like when freed into the hostile member.
    PmDeviceConfig donor_dcfg;
    donor_dcfg.size = opt_.device_mb << 20;
    PmDevice donor_dev(donor_dcfg);
    NvAllocConfig donor_cfg;
    auto donor_h = NvAlloc::openOrDie(donor_dev, donor_cfg);
    NvAlloc &donor = *donor_h;
    ThreadCtx *donor_ctx = donor.attachThread();
    if (!donor_ctx) {
        error_ = "donor heap attach failed";
        return false;
    }
    size_t pad = (opt_.device_mb / 8) << 20;
    for (unsigned i = 0; i < 2; ++i)
        donor.allocOffset(*donor_ctx, pad, nullptr);
    std::vector<uint64_t> donor_offs;
    for (unsigned i = 0; i < 48; ++i) {
        uint64_t off = donor.allocOffset(
            *donor_ctx, i % 5 == 0 ? 32 * 1024 : 128, nullptr);
        if (off)
            donor_offs.push_back(off);
    }

    bool late_tenant_done = false;

    for (unsigned round = 0; round < opt_.rounds; ++round) {
        ChaosEvent ev = ChaosEvent(round % kEventCount);
        if (opt_.verbose)
            std::fprintf(stderr, "pool-chaos: round %u event %s\n",
                         round, chaosEventName(ev));

        uint64_t sibling_failed[kTenants];
        for (unsigned t = 1; t < kTenants; ++t)
            sibling_failed[t] = failedAllocs(*heaps[t]);

        NvAlloc *victim = heaps[0];
        auto *vslots =
            static_cast<uint64_t *>(victim->at(table_off[0]));

        ++injected_[unsigned(ev)];
        uint64_t skipped_before = skipped_[unsigned(ev)];
        bool crash_round =
            ev == ChaosEvent::Crash ||
            (ev == ChaosEvent::TornTx &&
             victim->config().consistency == Consistency::Log);

        if (crash_round) {
            // Fresh per-round fault policy on the victim device only:
            // the siblings' devices never crash, so their unfenced
            // stores are not at stake.
            FaultPolicy fp;
            fp.seed = opt_.seed * 1000003ULL + round + 1;
            fp.staged_persist_fraction = 0.7;
            fp.word_granularity = true;
            devs[0]->setFaultPolicy(fp);

            sizes_.swap(tsizes[0]);
            if (ev == ChaosEvent::Crash) {
                unsigned nth = 1 + unsigned(rng_.nextBounded(150));
                devs[0]->armCrashAtFlush(nth);
                churn(*victim, *ctxs[0], vslots, opt_.ops_per_round,
                      *devs[0], /*crash_mode=*/true);
            } else {
                // Stage a multi-op transaction and crash inside it.
                churn(*victim, *ctxs[0], vslots, opt_.ops_per_round / 2,
                      *devs[0], /*crash_mode=*/false);
                unsigned fs = kSlots;
                for (unsigned s = 0; s < kSlots && fs == kSlots; ++s)
                    if (vslots[s] == 0)
                        fs = s;
                unsigned ls = pickSmallSlot(*victim, vslots);
                unsigned tx_flushes =
                    1 + (fs != kSlots ? 1 : 0) + (ls != kSlots ? 2 : 0);
                unsigned nth =
                    1 + unsigned(rng_.nextBounded(tx_flushes + 3));
                devs[0]->armCrashAtFlush(nth);
                victim->txBegin(*ctxs[0]);
                if (fs != kSlots &&
                    victim->txAlloc(*ctxs[0], 96, &vslots[fs]) != 0)
                    sizes_[fs] = 96;
                if (ls != kSlots &&
                    victim->txFree(*ctxs[0], vslots[ls]) ==
                        NvStatus::Ok) {
                    victim->txWrite(*ctxs[0], &vslots[ls], 0);
                    sizes_[ls] = 0;
                }
                victim->txWrite(*ctxs[0], victim->rootWord(1),
                                round + 1);
                victim->txCommit(*ctxs[0]);
                if (!devs[0]->crashTriggered())
                    ++skipped_[unsigned(ev)];
            }
            bool tx_crashed = ev == ChaosEvent::TornTx &&
                              devs[0]->crashTriggered();
            victim->simulateCrash();
            sizes_.swap(tsizes[0]);

            // Siblings serve across the victim's crash.
            for (unsigned t = 1; t < kTenants; ++t) {
                sizes_.swap(tsizes[t]);
                churn(*heaps[t], *ctxs[t],
                      static_cast<uint64_t *>(
                          heaps[t]->at(table_off[t])),
                      opt_.ops_per_round, *devs[t],
                      /*crash_mode=*/false);
                sizes_.swap(tsizes[t]);
            }

            // Member-local recovery through the pool; siblings are
            // untouched by it.
            HeapPool::MemberResult r = pool.reopen(kNames[0]);
            if (!r)
                return poolFail(round, ev, "victim reopen failed");
            heaps[0] = victim = r.heap;
            ctxs[0] = victim->attachThread();
            if (!ctxs[0])
                return poolFail(round, ev, "victim re-attach failed");
            if (*victim->rootWord(0) != table_off[0])
                return poolFail(round, ev, "victim slot table root lost");
            vslots = static_cast<uint64_t *>(victim->at(table_off[0]));
            for (unsigned s = 0; s < kSlots; ++s) {
                if (vslots[s] != 0 && !offsetLive(*victim, vslots[s]))
                    return poolFail(round, ev,
                                    "published block lost at slot " +
                                        std::to_string(s));
                if (vslots[s] == 0)
                    tsizes[0][s] = 0;
            }
            HeapAuditor auditor(*victim);
            AuditReport rep = auditor.audit();
            if (rep.violations() != 0)
                return poolFail(round, ev,
                                "post-reopen audit:\n" + rep.summary());
            if (tx_crashed) {
                uint64_t committed = 0, rolled_back = 0;
                victim->ctlRead("stats.tx.recovered_committed",
                                &committed);
                victim->ctlRead("stats.tx.recovered_rolled_back",
                                &rolled_back);
                if (committed + rolled_back == 0) {
                    // The crash landed before the group record was
                    // persisted (or the torn-word policy dropped it):
                    // recovery correctly found nothing to resolve, and
                    // the audit + slot sweep above proved the
                    // all-or-nothing outcome was "nothing".
                    ++skipped_[unsigned(ChaosEvent::TornTx)];
                } else {
                    ++detected_[unsigned(ChaosEvent::TornTx)];
                }
            } else if (ev == ChaosEvent::Crash) {
                ++detected_[unsigned(ChaosEvent::Crash)];
            }
        } else {
            if (ev == ChaosEvent::TornTx)
                ++skipped_[unsigned(ev)]; // tx classes are LOG-only
            // The hostile tenant corrupts its own heap mid-churn...
            sizes_.swap(tsizes[0]);
            churn(*victim, *ctxs[0], vslots, opt_.ops_per_round / 2,
                  *devs[0], /*crash_mode=*/false);
            bool inject_ok = ev == ChaosEvent::TornTx ||
                             inject(ev, *victim, *ctxs[0], *devs[0],
                                    vslots, round, donor_offs);
            // Once per soak, a stray bitmap bit rides along: patrol
            // cannot repair a popcount mismatch in place, so the
            // victim must cross into Quarantined (not just Degraded).
            bool want_quarantine = false;
            if (inject_ok && ev == ChaosEvent::HeaderSmash &&
                quarantine_rounds_ == 0) {
                for (unsigned a = 0;
                     a < victim->numArenas() && !want_quarantine; ++a) {
                    victim->arena(a).forEachSlab([&](VSlab *sl) {
                        if (want_quarantine)
                            return;
                        sl->header()->bitmap[kSlabBitmapBytes - 1] ^=
                            0x80;
                        want_quarantine = true;
                    });
                }
            }
            sizes_.swap(tsizes[0]);
            if (!inject_ok)
                return false;

            // ...while the siblings run plain mutator traffic.
            for (unsigned t = 1; t < kTenants; ++t) {
                sizes_.swap(tsizes[t]);
                churn(*heaps[t], *ctxs[t],
                      static_cast<uint64_t *>(
                          heaps[t]->at(table_off[t])),
                      opt_.ops_per_round, *devs[t],
                      /*crash_mode=*/false);
                sizes_.swap(tsizes[t]);
            }

            // Detection: hardened-free classes escalate at the
            // faulting op; metadata classes within the patrol budget.
            // Three classes legitimately never escalate here: a round
            // whose injection was skipped, PoisonLine (media poison
            // sits in *free* extents, which the patrol phases do not
            // walk — the injection already proved the full audit sees
            // it, and restore() repairs it below), and KvStomp (the
            // corruption lands in application payload: the KV layer's
            // checksum detects and contains it record-granularly
            // without the heap's health machine ever being involved —
            // escalating a whole tenant for one bad record would
            // defeat the containment the class is proving).
            bool skipped_this_round =
                skipped_[unsigned(ev)] != skipped_before;
            bool expect_escalation = !skipped_this_round &&
                                     ev != ChaosEvent::PoisonLine &&
                                     ev != ChaosEvent::KvStomp;
            if (expect_escalation || want_quarantine) {
                HeapHealth goal = want_quarantine
                                      ? HeapHealth::Quarantined
                                      : HeapHealth::Degraded;
                unsigned slices = 0;
                while (unsigned(victim->health()) < unsigned(goal) &&
                       slices < kPatrolBudget) {
                    victim->patrolSlice();
                    ++slices;
                }
                if (unsigned(victim->health()) < unsigned(goal))
                    return poolFail(round, ev,
                                    "victim not detected within " +
                                        std::to_string(kPatrolBudget) +
                                        " patrol slices");
                if (want_quarantine)
                    ++quarantine_rounds_;
            }
        }

        // Containment: while Degraded/Quarantined the victim refuses
        // new mutations...
        bool victim_down = unsigned(victim->health()) >=
                           unsigned(HeapHealth::Degraded);
        if (victim_down &&
            victim->allocOffset(*ctxs[0], 64, nullptr) != 0)
            return poolFail(round, ev,
                            "degraded victim served an allocation");

        // ...and a new member can open (and serve) while the victim
        // sits quarantined.
        if (victim->health() == HeapHealth::Quarantined &&
            !late_tenant_done) {
            devs.emplace_back(new PmDevice(dcfg));
            HeapPool::MemberResult late =
                pool.open("late", *devs.back(), poolConfig());
            if (!late)
                return poolFail(round, ev,
                                "open during quarantine failed");
            ThreadCtx *lctx = late.heap->attachThread();
            if (!lctx)
                return poolFail(round, ev, "late tenant attach failed");
            uint64_t loff =
                late.heap->allocOffset(*lctx, 256, nullptr);
            if (loff == 0 ||
                late.heap->freeOffset(*lctx, loff, nullptr) !=
                    NvStatus::Ok)
                return poolFail(round, ev,
                                "late tenant failed to serve during "
                                "quarantine");
            late.heap->detachThread(lctx);
            if (pool.close("late") != NvStatus::Ok)
                return poolFail(round, ev, "late tenant close failed");
            late_tenant_done = true;
        }

        // Blast radius: every sibling is Serving, audits clean, and
        // had zero failed allocations this round.
        for (unsigned t = 1; t < kTenants; ++t) {
            if (heaps[t]->health() != HeapHealth::Serving)
                return poolFail(round, ev,
                                std::string("sibling ") + kNames[t] +
                                    " left Serving");
            if (failedAllocs(*heaps[t]) != sibling_failed[t])
                return poolFail(round, ev,
                                std::string("sibling ") + kNames[t] +
                                    " had failed allocations");
            HeapAuditor auditor(*heaps[t]);
            AuditReport rep = auditor.audit();
            if (rep.violations() != 0)
                return poolFail(round, ev,
                                std::string("sibling ") + kNames[t] +
                                    " audit:\n" + rep.summary());
        }

        // Convergence: repair + re-audit returns the victim to
        // Serving every round (restore() refuses unless the final
        // audit is clean). Quiesce the tenant first — bitmap rebuild
        // refuses while its thread still holds tcache-lent blocks.
        victim->detachThread(ctxs[0]);
        if (pool.restore(kNames[0]) != NvStatus::Ok)
            return poolFail(round, ev, "victim restore failed");
        if (victim->health() != HeapHealth::Serving)
            return poolFail(round, ev,
                            "victim not Serving after restore");
        ctxs[0] = victim->attachThread();
        if (!ctxs[0])
            return poolFail(round, ev,
                            "victim re-attach after restore failed");
        ++rounds_run_;
    }

    if (!late_tenant_done &&
        opt_.rounds > unsigned(ChaosEvent::HeaderSmash)) {
        error_ = "[pool] quarantine round never ran (no late-tenant "
                 "open was exercised)";
        return false;
    }

    // Final sweep: every tenant's published blocks still free cleanly
    // and every member audits clean — the pool converged.
    for (unsigned t = 0; t < kTenants; ++t) {
        auto *slots =
            static_cast<uint64_t *>(heaps[t]->at(table_off[t]));
        for (unsigned s = 0; s < kSlots; ++s) {
            if (slots[s] != 0 &&
                heaps[t]->freeFrom(*ctxs[t], &slots[s]) !=
                    NvStatus::Ok) {
                error_ = std::string("[pool] final free of ") +
                         kNames[t] + " slot " + std::to_string(s) +
                         " rejected";
                return false;
            }
        }
        heaps[t]->hardening().drainQuarantine();
        HeapAuditor auditor(*heaps[t]);
        AuditReport rep = auditor.audit();
        if (rep.violations() != 0) {
            error_ = std::string("[pool] final audit of ") + kNames[t] +
                     ":\n" + rep.summary();
            return false;
        }
        heaps[t]->detachThread(ctxs[t]);
    }
    donor.detachThread(donor_ctx);
    return true;
}

} // namespace nvalloc

#endif // NVALLOC_TOOLS_POOL_CHAOS_HARNESS_H
