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
 * The victim's crash and torn-tx rounds, the recovery check after its
 * reopen and the final sweep are the single-heap soak's own
 * (ChaosHarness::crashRound, recovered, finalSweep).
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
        table_off[t] = newSlotTable(*heaps[t], *ctxs[t]);
        if (!table_off[t]) {
            error_ = std::string(kNames[t]) + " slot table alloc failed";
            return false;
        }
        tsizes[t].assign(kSlots, 0);
    }

    // The cross-heap donor: its padded-high offsets are what a stale
    // cross-tenant pointer looks like when freed into the hostile member.
    Donor donor(opt_.device_mb);
    if (!donor.ctx) {
        error_ = "donor heap attach failed";
        return false;
    }

    // The siblings' plain mutator traffic, each on its own slot sizes.
    auto churnSiblings = [&] {
        for (unsigned t = 1; t < kTenants; ++t) {
            sizes_.swap(tsizes[t]);
            churn(*heaps[t], *ctxs[t],
                  static_cast<uint64_t *>(heaps[t]->at(table_off[t])),
                  opt_.ops_per_round, *devs[t], /*crash_mode=*/false);
            sizes_.swap(tsizes[t]);
        }
    };

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
            // The fault policy goes on the victim device only: the
            // siblings' devices never crash, so their unfenced stores
            // are not at stake.
            armRoundFaults(*devs[0], round);
            sizes_.swap(tsizes[0]);
            bool torn =
                crashRound(ev, *victim, *ctxs[0], *devs[0], vslots, round);
            sizes_.swap(tsizes[0]);

            // Siblings serve across the victim's crash.
            churnSiblings();

            // Member-local recovery through the pool; siblings are
            // untouched by it.
            HeapPool::MemberResult r = pool.reopen(kNames[0]);
            if (!r)
                return fail(round, ev, "victim reopen failed");
            heaps[0] = victim = r.heap;
            ctxs[0] = victim->attachThread();
            if (!ctxs[0])
                return fail(round, ev, "victim re-attach failed");
            if (!recovered(*victim, table_off[0],
                           ev == ChaosEvent::Crash, torn, round, ev))
                return false;
        } else {
            if (ev == ChaosEvent::TornTx)
                ++skipped_[unsigned(ev)]; // tx classes are LOG-only
            // The hostile tenant corrupts its own heap mid-churn...
            sizes_.swap(tsizes[0]);
            churn(*victim, *ctxs[0], vslots, opt_.ops_per_round / 2,
                  *devs[0], /*crash_mode=*/false);
            bool inject_ok = ev == ChaosEvent::TornTx ||
                             inject(ev, *victim, *ctxs[0], *devs[0],
                                    vslots, round, donor.offs);
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
            churnSiblings();

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
                    return fail(round, ev,
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
            return fail(round, ev, "degraded victim served an allocation");

        // ...and a new member can open (and serve) while the victim
        // sits quarantined.
        if (victim->health() == HeapHealth::Quarantined &&
            !late_tenant_done) {
            devs.emplace_back(new PmDevice(dcfg));
            HeapPool::MemberResult late =
                pool.open("late", *devs.back(), poolConfig());
            if (!late)
                return fail(round, ev, "open during quarantine failed");
            ThreadCtx *lctx = late.heap->attachThread();
            if (!lctx)
                return fail(round, ev, "late tenant attach failed");
            uint64_t loff =
                late.heap->allocOffset(*lctx, 256, nullptr);
            if (loff == 0 ||
                late.heap->freeOffset(*lctx, loff, nullptr) !=
                    NvStatus::Ok)
                return fail(round, ev,
                            "late tenant failed to serve during "
                            "quarantine");
            late.heap->detachThread(lctx);
            if (pool.close("late") != NvStatus::Ok)
                return fail(round, ev, "late tenant close failed");
            late_tenant_done = true;
        }

        // Blast radius: every sibling is Serving, audits clean, and
        // had zero failed allocations this round.
        for (unsigned t = 1; t < kTenants; ++t) {
            if (heaps[t]->health() != HeapHealth::Serving)
                return fail(round, ev,
                            std::string("sibling ") + kNames[t] +
                                " left Serving");
            if (failedAllocs(*heaps[t]) != sibling_failed[t])
                return fail(round, ev,
                            std::string("sibling ") + kNames[t] +
                                " had failed allocations");
            HeapAuditor auditor(*heaps[t]);
            AuditReport rep = auditor.audit();
            if (rep.violations() != 0)
                return fail(round, ev,
                            std::string("sibling ") + kNames[t] +
                                " audit:\n" + rep.summary());
        }

        // Convergence: repair + re-audit returns the victim to
        // Serving every round (restore() refuses unless the final
        // audit is clean). Quiesce the tenant first — bitmap rebuild
        // refuses while its thread still holds tcache-lent blocks.
        victim->detachThread(ctxs[0]);
        if (pool.restore(kNames[0]) != NvStatus::Ok)
            return fail(round, ev, "victim restore failed");
        if (victim->health() != HeapHealth::Serving)
            return fail(round, ev, "victim not Serving after restore");
        ctxs[0] = victim->attachThread();
        if (!ctxs[0])
            return fail(round, ev, "victim re-attach after restore failed");
        ++rounds_run_;
    }

    if (!late_tenant_done &&
        opt_.rounds > unsigned(ChaosEvent::HeaderSmash)) {
        error_ = "quarantine round never ran (no late-tenant open was "
                 "exercised)";
        return false;
    }

    // Every tenant's published blocks still free cleanly and every
    // member audits clean — the pool converged.
    for (unsigned t = 0; t < kTenants; ++t) {
        if (!finalSweep(*heaps[t], *ctxs[t], table_off[t])) {
            error_ = std::string(kNames[t]) + ": " + error_;
            return false;
        }
    }
    return true;
}

} // namespace nvalloc

#endif // NVALLOC_TOOLS_POOL_CHAOS_HARNESS_H
