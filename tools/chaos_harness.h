/**
 * @file
 * Chaos soak harness for the hardening subsystem (DESIGN.md §9).
 *
 * A seeded, deterministic (no maintenance thread) loop that
 * interleaves a mutator workload with two kinds of trouble:
 *
 *  - fault-injector events: mid-operation crashes at arbitrary flush
 *    points under a torn-word policy, plus media poison — the same
 *    substrate as the flush-granularity crash sweep;
 *  - deliberate application-level corruption: double frees, wild and
 *    misaligned frees, cross-heap frees (against a live donor heap),
 *    canary stomps, guard redzone overflows, quarantine stomps,
 *    slab-header smashes, transactions torn by a mid-commit crash
 *    (resolved all-or-nothing by the next recovery), and KV-level
 *    stomps of a live record's payload and bucket word, detected and
 *    contained by the KV service's checksums (src/kv/).
 *
 * After every round the harness asserts the containment contract: the
 * corruption was detected (the matching stats.hardening.* counter
 * moved) and contained (the heap still audits clean, repairable damage
 * was repaired, and — after a crash — recovery converged with every
 * persistently published block still allocated and a torn transaction
 * resolved).
 *
 * The pool soak (tools/pool_chaos_harness.h) runs the same round
 * machinery — donor heap, slot table, fault policy, crash round,
 * recovery check and final sweep — against the hostile member of a
 * pool, so both soaks share one crash round, one torn-tx rule and one
 * recovery check.
 *
 * Shared by tools/nvalloc_chaos.cc (CLI soak) and tests/test_chaos.cc
 * (ctest registration, including the soak-labeled long run).
 */

#ifndef NVALLOC_TOOLS_CHAOS_HARNESS_H
#define NVALLOC_TOOLS_CHAOS_HARNESS_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kv/kv_store.h"
#include "nvalloc/auditor.h"
#include "nvalloc/nvalloc.h"

namespace nvalloc {

/** One trouble class the harness can inject into a round. */
enum class ChaosEvent : unsigned
{
    DoubleFree = 0,
    WildFree,
    MisalignedFree,
    CanaryStomp,
    CrossHeapFree,
    GuardOverflow,
    QuarantineStomp,
    HeaderSmash,
    PoisonLine,
    Crash,
    TornTx,
    KvStomp,
    kCount,
};

inline const char *
chaosEventName(ChaosEvent e)
{
    switch (e) {
    case ChaosEvent::DoubleFree: return "double-free";
    case ChaosEvent::WildFree: return "wild-free";
    case ChaosEvent::MisalignedFree: return "misaligned-free";
    case ChaosEvent::CanaryStomp: return "canary-stomp";
    case ChaosEvent::CrossHeapFree: return "cross-heap-free";
    case ChaosEvent::GuardOverflow: return "guard-overflow";
    case ChaosEvent::QuarantineStomp: return "quarantine-stomp";
    case ChaosEvent::HeaderSmash: return "header-smash";
    case ChaosEvent::PoisonLine: return "poison-line";
    case ChaosEvent::Crash: return "crash";
    case ChaosEvent::TornTx: return "torn-tx";
    case ChaosEvent::KvStomp: return "kv-stomp";
    case ChaosEvent::kCount: break;
    }
    return "?";
}

struct ChaosOptions
{
    uint64_t seed = 1;
    unsigned rounds = 200;
    unsigned ops_per_round = 256;
    size_t device_mb = 256;
    bool gc = false; //!< NVAlloc-GC instead of NVAlloc-LOG
    bool verbose = false;
    HardeningPolicy policy = HardeningPolicy::Report;
};

class ChaosHarness
{
  public:
    static constexpr unsigned kSlots = 96;
    static constexpr unsigned kEventCount =
        unsigned(ChaosEvent::kCount);

    explicit ChaosHarness(const ChaosOptions &o)
        : opt_(o), rng_(o.seed ? o.seed : 1)
    {
    }

    /** Run the soak; false on the first containment failure (see
     *  error()). Deterministic for a given ChaosOptions. */
    bool run();

    const std::string &error() const { return error_; }
    unsigned roundsRun() const { return rounds_run_; }
    uint64_t injected(ChaosEvent e) const { return injected_[unsigned(e)]; }
    uint64_t detected(ChaosEvent e) const { return detected_[unsigned(e)]; }
    uint64_t skipped(ChaosEvent e) const { return skipped_[unsigned(e)]; }

    std::string
    summary() const
    {
        std::string s;
        char buf[128];
        for (unsigned e = 0; e < kEventCount; ++e) {
            std::snprintf(buf, sizeof(buf),
                          "  %-16s injected=%llu detected=%llu "
                          "skipped=%llu\n",
                          chaosEventName(ChaosEvent(e)),
                          (unsigned long long)injected_[e],
                          (unsigned long long)detected_[e],
                          (unsigned long long)skipped_[e]);
            s += buf;
        }
        return s;
    }

  protected:
    // The injection routines, slot oracle, per-round state and round
    // machinery are shared with PoolChaosHarness
    // (tools/pool_chaos_harness.h), which drives them against the
    // victim member of a multi-tenant pool.

    /** The cross-heap donor: a second live heap on its own device. Its
     *  blocks' offsets are valid device offsets of the primary heap
     *  too (the devices are the same address space model), which is
     *  exactly the bug shape: a pointer from heap A freed into heap B.
     *  Padding pushes the donor's candidate blocks to high offsets the
     *  primary heap never maps, so the free classifies as wild there
     *  and the registry can attribute it to the donor. ctx is null if
     *  the attach failed; the heap's destructor drains it otherwise. */
    struct Donor
    {
        explicit Donor(size_t device_mb)
            : dev(PmDeviceConfig{.size = device_mb << 20}),
              heap(NvAlloc::openOrDie(dev)), ctx(heap->attachThread())
        {
            if (!ctx)
                return;
            size_t pad = (device_mb / 8) << 20;
            for (unsigned i = 0; i < 2; ++i)
                heap->allocOffset(*ctx, pad, nullptr);
            for (unsigned i = 0; i < 48; ++i) {
                uint64_t off = heap->allocOffset(
                    *ctx, i % 5 == 0 ? 32 * 1024 : 128, nullptr);
                if (off)
                    offs.push_back(off);
            }
        }

        PmDevice dev;
        std::unique_ptr<NvAlloc> heap;
        ThreadCtx *ctx;
        std::vector<uint64_t> offs;
    };

    /** Allocate the zeroed, durable slot table at rootWord(0); its
     *  offset, or 0 if the allocation failed. */
    static uint64_t
    newSlotTable(NvAlloc &heap, ThreadCtx &ctx)
    {
        heap.mallocTo(ctx, kSlots * 8, heap.rootWord(0));
        const uint64_t off = *heap.rootWord(0);
        if (off) {
            void *slots = heap.at(off);
            std::memset(slots, 0, kSlots * 8);
            heap.device().persistFence(slots, kSlots * 8,
                                       TimeKind::FlushData);
        }
        return off;
    }

    /** Fresh fault policy per round (reseeded): unfenced flushes may
     *  tear or drop when this round crashes. */
    void
    armRoundFaults(PmDevice &dev, unsigned round) const
    {
        FaultPolicy fp;
        fp.seed = opt_.seed * 1000003ULL + round + 1;
        fp.staged_persist_fraction = 0.7;
        fp.word_granularity = true;
        dev.setFaultPolicy(fp);
    }

    NvAllocConfig
    config() const
    {
        NvAllocConfig cfg;
        cfg.consistency =
            opt_.gc ? Consistency::Gc : Consistency::Log;
        // The default maintenance mode starts no thread, so the run
        // stays single-threaded, hence deterministic for a given seed.
        cfg.redzone_canaries = true;
        cfg.quarantine_depth = 16;
        cfg.guard_sample_rate = 32;
        cfg.hardening_policy = opt_.policy;
        return cfg;
    }

    bool
    fail(unsigned round, ChaosEvent ev, const std::string &msg)
    {
        error_ = "round " + std::to_string(round) + " (" +
                 chaosEventName(ev) + "): " + msg;
        return false;
    }

    /** Is `off` still allocated (small block, old block, or extent)? */
    static bool
    offsetLive(NvAlloc &heap, uint64_t off)
    {
        if (auto *slab =
                static_cast<VSlab *>(heap.slabRadix().get(off))) {
            unsigned old_idx = 0;
            if (slab->isOldBlock(off, old_idx))
                return true;
            unsigned idx = slab->blockIndexOf(off);
            return idx < slab->capacity() && slab->isAllocated(idx);
        }
        Veh *veh = heap.large().findVeh(off);
        return veh && veh->off == off &&
               veh->state == Veh::State::Activated && !veh->is_slab;
    }

    size_t
    pickSize()
    {
        static const size_t small[] = {16,  32,   64,   96,  256,
                                       512, 1024, 2048, 4096, 8192};
        static const size_t large[] = {24 * 1024, 48 * 1024, 96 * 1024};
        if (rng_.nextBounded(24) == 0)
            return large[rng_.nextBounded(3)];
        return small[rng_.nextBounded(10)];
    }

    /** Seeded alloc/free churn over the persistent slot table; steps a
     *  maintenance slice periodically. In crash mode, stops once the
     *  armed crash point has triggered. */
    void
    churn(NvAlloc &heap, ThreadCtx &ctx, uint64_t *slots, unsigned ops,
          PmDevice &dev, bool crash_mode)
    {
        for (unsigned op = 0; op < ops; ++op) {
            if (crash_mode && dev.crashTriggered())
                return;
            if (op % 64 == 63)
                heap.maintenance().step();
            unsigned s = unsigned(rng_.nextBounded(kSlots));
            if (slots[s] == 0) {
                size_t size = pickSize();
                void *p = heap.mallocTo(ctx, size, &slots[s]);
                if (p) {
                    sizes_[s] = size;
                    std::memset(p, int(0x41 + (s & 31)),
                                std::min<size_t>(size, 32));
                    dev.persistFence(p, 32, TimeKind::FlushData);
                }
            } else {
                heap.freeFrom(ctx, &slots[s]);
                sizes_[s] = 0;
            }
        }
    }

    /** A live slot holding a current-geometry small block that is not
     *  a guard; kSlots if none qualifies. */
    unsigned
    pickSmallSlot(NvAlloc &heap, const uint64_t *slots,
                  size_t min_size = 0)
    {
        for (unsigned tries = 0; tries < kSlots; ++tries) {
            unsigned s = unsigned(rng_.nextBounded(kSlots));
            uint64_t off = slots[s];
            if (off == 0 || sizes_[s] < min_size)
                continue;
            if (heap.hardening().isGuard(off))
                continue;
            auto *slab =
                static_cast<VSlab *>(heap.slabRadix().get(off));
            if (!slab)
                continue;
            unsigned old_idx = 0;
            if (slab->isOldBlock(off, old_idx))
                continue;
            return s;
        }
        return kSlots;
    }

    bool inject(ChaosEvent ev, NvAlloc &heap, ThreadCtx &ctx,
                PmDevice &dev, uint64_t *slots, unsigned round,
                const std::vector<uint64_t> &donor_offs);

    /** Run a Crash or (LOG-only) TornTx round on `heap` and crash it;
     *  the caller reopens. True if the crash tore a transaction that
     *  the next open's recovery must resolve. */
    bool crashRound(ChaosEvent ev, NvAlloc &heap, ThreadCtx &ctx,
                    PmDevice &dev, uint64_t *slots, unsigned round);

    /**
     * The recovery check of a heap opened after a round: the slot
     * table's root word still names table_off, every persistently
     * published block survived (sizes are volatile and rebuilt lazily:
     * a slot whose size is unknown is still freeable), the heap audits
     * clean, and a transaction the crash tore (`torn`) was resolved
     * one way or the other — the slot checks verify whichever way
     * all-or-nothing. On success the crash (`crashed`) or the torn
     * transaction counts as detected.
     */
    bool
    recovered(NvAlloc &heap, uint64_t table_off, bool crashed, bool torn,
              unsigned round, ChaosEvent ev)
    {
        if (*heap.rootWord(0) != table_off)
            return fail(round, ev, "slot table root lost");
        const auto *slots =
            static_cast<const uint64_t *>(heap.at(table_off));
        for (unsigned s = 0; s < kSlots; ++s)
            if (slots[s] != 0 && !offsetLive(heap, slots[s]))
                return fail(round, ev,
                            "published block lost at slot " +
                                std::to_string(s));
        HeapAuditor auditor(heap);
        AuditReport rep = auditor.audit();
        if (rep.violations() != 0)
            return fail(round, ev, "post-open audit:\n" + rep.summary());
        if (torn) {
            uint64_t committed = 0, rolled_back = 0;
            heap.ctlRead("stats.tx.recovered_committed", &committed);
            heap.ctlRead("stats.tx.recovered_rolled_back", &rolled_back);
            if (committed + rolled_back == 0)
                return fail(round, ChaosEvent::TornTx,
                            "crashed transaction not resolved");
            ++detected_[unsigned(ChaosEvent::TornTx)];
        }
        if (crashed)
            ++detected_[unsigned(ChaosEvent::Crash)];
        return true;
    }

    /** Final life: every published block still frees cleanly and the
     *  emptied heap audits clean — the soak converged. Detaches ctx. */
    bool
    finalSweep(NvAlloc &heap, ThreadCtx &ctx, uint64_t table_off)
    {
        auto *slots = static_cast<uint64_t *>(heap.at(table_off));
        for (unsigned s = 0; s < kSlots; ++s) {
            if (slots[s] != 0 &&
                heap.freeFrom(ctx, &slots[s]) != NvStatus::Ok) {
                error_ = "final free of slot " + std::to_string(s) +
                         " rejected";
                return false;
            }
        }
        heap.hardening().drainQuarantine();
        HeapAuditor auditor(heap);
        AuditReport rep = auditor.audit();
        if (rep.violations() != 0) {
            error_ = "final audit:\n" + rep.summary();
            return false;
        }
        heap.detachThread(&ctx);
        return true;
    }

    ChaosOptions opt_;
    Rng rng_;
    std::string error_;
    unsigned rounds_run_ = 0;
    uint64_t injected_[kEventCount] = {};
    uint64_t detected_[kEventCount] = {};
    uint64_t skipped_[kEventCount] = {};
    std::vector<size_t> sizes_; //!< per-slot sizes (volatile oracle)
};

inline bool
ChaosHarness::inject(ChaosEvent ev, NvAlloc &heap, ThreadCtx &ctx,
                     PmDevice &dev, uint64_t *slots, unsigned round,
                     const std::vector<uint64_t> &donor_offs)
{
    auto count = [&heap](StatCounter c) {
        return heap.telemetry().total(c);
    };
    auto skip = [&](const char *why) {
        ++skipped_[unsigned(ev)];
        if (opt_.verbose)
            std::fprintf(stderr, "chaos: round %u %s skipped (%s)\n",
                         round, chaosEventName(ev), why);
        return true;
    };

    switch (ev) {
    case ChaosEvent::DoubleFree: {
        unsigned s = pickSmallSlot(heap, slots);
        if (s == kSlots)
            return skip("no small block live");
        uint64_t off = slots[s];
        uint64_t before = count(StatCounter::DoubleFree);
        if (heap.freeFrom(ctx, &slots[s]) != NvStatus::Ok)
            return fail(round, ev, "priming free rejected");
        sizes_[s] = 0;
        // The priming free can trigger a slab morph; after one the
        // stale offset may no longer name a block boundary of the
        // current geometry, and the second free then (correctly)
        // classifies as misaligned rather than double.
        auto *pslab = static_cast<VSlab *>(heap.slabRadix().get(off));
        unsigned old_idx = 0;
        if (!pslab || pslab->isOldBlock(off, old_idx))
            return skip("priming free morphed the slab");
        unsigned pidx = pslab->blockIndexOf(off);
        if (pidx >= pslab->capacity() || pslab->blockOffset(pidx) != off)
            return skip("priming free morphed the slab geometry");
        if (heap.freeOffset(ctx, off, nullptr) != NvStatus::InvalidFree)
            return fail(round, ev, "double free not rejected");
        if (count(StatCounter::DoubleFree) != before + 1)
            return fail(round, ev, "double_frees did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::WildFree: {
        // The device tail is never mapped by the workload's footprint.
        uint64_t off = dev.size() - kCacheLine;
        uint64_t before = count(StatCounter::WildFree);
        if (heap.ownsOffset(off))
            return skip("device tail mapped");
        if (heap.freeOffset(ctx, off, nullptr) != NvStatus::InvalidFree)
            return fail(round, ev, "wild free not rejected");
        if (count(StatCounter::WildFree) != before + 1)
            return fail(round, ev, "wild_frees did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::MisalignedFree: {
        unsigned s = pickSmallSlot(heap, slots, /*min_size=*/16);
        if (s == kSlots)
            return skip("no block >= 16B live");
        uint64_t before = count(StatCounter::MisalignedFree);
        if (heap.freeOffset(ctx, slots[s] + 8, nullptr) !=
            NvStatus::InvalidFree)
            return fail(round, ev, "interior free not rejected");
        if (count(StatCounter::MisalignedFree) != before + 1)
            return fail(round, ev, "misaligned_frees did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::CanaryStomp: {
        unsigned s = pickSmallSlot(heap, slots);
        if (s == kSlots)
            return skip("no small block live");
        uint64_t off = slots[s];
        auto *slab = static_cast<VSlab *>(heap.slabRadix().get(off));
        unsigned bsize = slab->blockSize();
        // The application overflow: the canary word gets clobbered.
        auto *w = reinterpret_cast<uint64_t *>(
            static_cast<char *>(heap.at(off)) + bsize -
            HardeningManager::kCanaryBytes);
        *w ^= 0xdeadbeefcafef00dULL;
        uint64_t before = count(StatCounter::CanaryStomp);
        NvStatus st = heap.freeFrom(ctx, &slots[s]);
        sizes_[s] = 0;
        if (st != NvStatus::Ok)
            return fail(round, ev,
                        "stomped free should contain, not error");
        if (count(StatCounter::CanaryStomp) != before + 1)
            return fail(round, ev, "canary_stomps did not move");
        if (slots[s] != 0)
            return fail(round, ev, "attach word not cleared");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::CrossHeapFree: {
        uint64_t victim = 0;
        for (uint64_t cand : donor_offs) {
            if (cand < dev.size() && !heap.ownsOffset(cand)) {
                victim = cand;
                break;
            }
        }
        if (victim == 0)
            return skip("all donor offsets collide with this heap");
        uint64_t before = count(StatCounter::CrossHeapFree);
        if (heap.freeOffset(ctx, victim, nullptr) !=
            NvStatus::InvalidFree)
            return fail(round, ev, "cross-heap free not rejected");
        if (count(StatCounter::CrossHeapFree) != before + 1)
            return fail(round, ev, "cross_heap_frees did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::GuardOverflow: {
        // Allocate until the sampler hands out a guard extent.
        uint64_t goff = 0;
        std::vector<uint64_t> chaff;
        for (unsigned i = 0; i < 4 * 32 && goff == 0; ++i) {
            uint64_t off = heap.allocOffset(ctx, 48, nullptr);
            if (off == 0)
                break;
            if (heap.hardening().isGuard(off))
                goff = off;
            else
                chaff.push_back(off);
        }
        for (uint64_t off : chaff)
            heap.freeOffset(ctx, off, nullptr);
        if (goff == 0)
            return skip("sampler produced no guard");
        // Linear overflow: one byte past the allocation, into the
        // redzone fill.
        static_cast<uint8_t *>(heap.at(goff))[48] = 0xaa;
        uint64_t before = count(StatCounter::GuardOverflow);
        if (heap.freeOffset(ctx, goff, nullptr) != NvStatus::Ok)
            return fail(round, ev, "guard free should contain");
        if (count(StatCounter::GuardOverflow) != before + 1)
            return fail(round, ev, "guard_overflows did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::QuarantineStomp: {
        // Start from an empty FIFO: a saturated one evicts on push,
        // leaving the depth unchanged. Morph-candidate blocks bypass
        // the quarantine, so try a few victims.
        heap.hardening().drainQuarantine();
        uint64_t off = 0;
        for (unsigned tries = 0; tries < 8 && off == 0; ++tries) {
            unsigned s = pickSmallSlot(heap, slots);
            if (s == kSlots)
                break;
            uint64_t cand = slots[s];
            if (heap.freeFrom(ctx, &slots[s]) != NvStatus::Ok)
                return fail(round, ev, "priming free rejected");
            sizes_[s] = 0;
            if (heap.hardening().quarantineDepth() > 0)
                off = cand;
        }
        if (off == 0)
            return skip("every victim bypassed the quarantine");
        // The use-after-free write, into the poison fill.
        std::memset(heap.at(off), 0x5a, 8);
        uint64_t before = count(StatCounter::QuarantineUaf);
        heap.hardening().drainQuarantine();
        if (count(StatCounter::QuarantineUaf) != before + 1)
            return fail(round, ev, "quarantine_uaf did not move");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::HeaderSmash: {
        VSlab *victim = nullptr;
        for (unsigned a = 0; a < heap.numArenas() && !victim; ++a) {
            heap.arena(a).forEachSlab([&](VSlab *sl) {
                if (!victim && !sl->morphing())
                    victim = sl;
            });
        }
        if (!victim)
            return skip("no repairable slab");
        victim->header()->size_class ^= 0x55;
        HeapAuditor auditor(heap);
        AuditReport rep = auditor.audit();
        if (rep.slab_header_bad == 0)
            return fail(round, ev, "smashed header not detected");
        // Containment: repaired from the volatile mirror (the common
        // post-round repair pass re-audits clean below).
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::PoisonLine: {
        dev.poisonLine(dev.size() - kCacheLine);
        HeapAuditor auditor(heap);
        AuditReport rep = auditor.audit();
        if (rep.poisoned_free_lines == 0)
            return fail(round, ev, "poisoned line not detected");
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::KvStomp: {
        // Application-level corruption through the KV service
        // (src/kv/): stomp a live record's payload and a bucket head
        // word, and expect record-granular detection + containment —
        // sibling keys stay readable, the allocator's own metadata
        // stays audit-clean (the stomp lands inside the payload, not
        // on the canary), and an erase-then-read never touches the
        // quarantined block.
        if (heap.config().consistency != Consistency::Log)
            return skip("kv needs the tx layer (LOG variant)");
        KvOptions ko;
        ko.buckets = 64;
        ko.root_index = 2;
        KvStatus why = KvStatus::Ok;
        auto kv = KvStore::open(heap, ko, &why);
        if (!kv) {
            if (why == KvStatus::HeapUnhealthy ||
                why == KvStatus::QuotaExceeded ||
                why == KvStatus::OutOfMemory)
                return skip(kvStatusName(why));
            return fail(round, ev,
                        std::string("kv open failed: ") +
                            kvStatusName(why));
        }
        char keys[3][32];
        std::string vals[3];
        for (unsigned i = 0; i < 3; ++i) {
            std::snprintf(keys[i], sizeof(keys[i]), "kv-%u-%u",
                          round, i);
            vals[i].assign(48 + 16 * i, char('a' + i));
            KvStatus s = kv->put(ctx, keys[i], vals[i]);
            if (s == KvStatus::HeapUnhealthy ||
                s == KvStatus::QuotaExceeded ||
                s == KvStatus::OutOfMemory)
                return skip(kvStatusName(s));
            if (s != KvStatus::Ok)
                return fail(round, ev, "kv put failed");
        }
        // Erase-then-read: the freed record routes through the
        // delayed-reuse quarantine at commit; the read (stripe-locked
        // out of the erase) must miss without dirtying the poison
        // fill, so draining must not report a quarantine UAF.
        uint64_t uaf_before = count(StatCounter::QuarantineUaf);
        std::string out;
        if (kv->erase(ctx, keys[0]) != KvStatus::Ok)
            return fail(round, ev, "kv erase failed");
        if (kv->get(keys[0], &out) != KvStatus::NotFound)
            return fail(round, ev, "erased key still readable");
        heap.hardening().drainQuarantine();
        if (count(StatCounter::QuarantineUaf) != uaf_before)
            return fail(round, ev,
                        "erase-then-read tripped the UAF guard");
        // Payload stomp: 8 bytes inside the live value (canary and
        // header untouched — the *KV* checksum must catch this).
        uint64_t roff = kv->recordOffset(keys[1]);
        if (roff == 0)
            return fail(round, ev, "record offset lookup failed");
        char *payload =
            static_cast<char *>(heap.at(roff + KvStore::kRecordHeader)) +
            std::strlen(keys[1]);
        char saved[8];
        std::memcpy(saved, payload, sizeof(saved));
        std::memset(payload, 0x6b, sizeof(saved));
        uint64_t corrupt_before =
            kv->stats().corrupt_records.load(std::memory_order_relaxed);
        if (kv->get(keys[1], &out) != KvStatus::Corrupt)
            return fail(round, ev, "stomped record not detected");
        if (kv->stats().corrupt_records.load(
                std::memory_order_relaxed) <= corrupt_before)
            return fail(round, ev, "corrupt_records did not move");
        if (kv->get(keys[2], &out) != KvStatus::Ok ||
            out != vals[2])
            return fail(round, ev, "sibling key not contained");
        std::memcpy(payload, saved, sizeof(saved));
        if (kv->get(keys[1], &out) != KvStatus::Ok || out != vals[1])
            return fail(round, ev, "restored record unreadable");
        // Bucket stomp: smash the chain head with a wild, misaligned
        // offset; the walk must classify it instead of wandering.
        uint64_t *bw = static_cast<uint64_t *>(
            heap.at(kv->bucketWordOffset(keys[2])));
        uint64_t head = *bw;
        *bw = dev.size() - 13;
        if (kv->get(keys[2], &out) != KvStatus::Corrupt)
            return fail(round, ev, "wild bucket head not detected");
        *bw = head;
        if (kv->get(keys[2], &out) != KvStatus::Ok)
            return fail(round, ev, "restored bucket unreadable");
        // Tidy so rounds stay independent (the store persists across
        // the harness's reopen cycle at rootWord(2)).
        for (unsigned i = 1; i < 3; ++i)
            if (kv->erase(ctx, keys[i]) != KvStatus::Ok)
                return fail(round, ev, "cleanup erase failed");
        heap.hardening().drainQuarantine();
        ++detected_[unsigned(ev)];
        return true;
    }
    case ChaosEvent::Crash:
    case ChaosEvent::TornTx:
    case ChaosEvent::kCount:
        break; // crashRound runs these
    }
    return true;
}

inline bool
ChaosHarness::crashRound(ChaosEvent ev, NvAlloc &heap, ThreadCtx &ctx,
                         PmDevice &dev, uint64_t *slots, unsigned round)
{
    if (ev == ChaosEvent::Crash) {
        unsigned nth = 1 + unsigned(rng_.nextBounded(150));
        dev.armCrashAtFlush(nth);
        churn(heap, ctx, slots, opt_.ops_per_round, dev,
              /*crash_mode=*/true);
        heap.simulateCrash();
        return false;
    }

    // Stage a multi-op transaction — an alloc into a free slot, a free
    // of a live one with its pointer clear, and a scratch word update —
    // and crash at a random flush inside it (ops, commit record, or the
    // apply phase).
    churn(heap, ctx, slots, opt_.ops_per_round / 2, dev,
          /*crash_mode=*/false);
    unsigned fs = kSlots;
    for (unsigned s = 0; s < kSlots && fs == kSlots; ++s)
        if (slots[s] == 0)
            fs = s;
    unsigned ls = pickSmallSlot(heap, slots);
    unsigned tx_flushes =
        1 + (fs != kSlots ? 1 : 0) + (ls != kSlots ? 2 : 0);
    // Flush 2 or later: the section's first flush is usually the
    // transaction's first journal append, and a crash there tears
    // nothing (the skip rule below).
    unsigned nth = 2 + unsigned(rng_.nextBounded(tx_flushes + 3));
    dev.armCrashAtFlush(nth);
    const uint64_t ring_off = heap.walRingOffset(ctx.wal_slot);
    heap.txBegin(ctx);
    const uint32_t tx_id = ctx.tx.id();
    if (fs != kSlots && heap.txAlloc(ctx, 96, &slots[fs]) != 0)
        sizes_[fs] = 96;
    if (ls != kSlots && heap.txFree(ctx, slots[ls]) == NvStatus::Ok) {
        heap.txWrite(ctx, &slots[ls], 0);
        sizes_[ls] = 0;
    }
    heap.txWrite(ctx, heap.rootWord(1), round + 1);
    heap.txCommit(ctx);
    const bool crashed = dev.crashTriggered();
    heap.simulateCrash();
    // The round tears the transaction only if the crash image holds one
    // of its journal entries; each append is fenced, so that is true
    // once its first entry is durable. A crash before it (in a slab
    // refill the staged txAlloc ran first, say) leaves nothing to
    // resolve, which the recovery check cannot tell from a lost
    // transaction: the round counts as skipped.
    bool journaled = false;
    if (crashed)
        Wal::forEachIntact(&dev, ring_off, [&](const WalEntry &e) {
            journaled = journaled || e.tx_id == tx_id;
        });
    if (!journaled)
        ++skipped_[unsigned(ev)];
    return journaled;
}

inline bool
ChaosHarness::run()
{
    PmDevice dev(PmDeviceConfig{.size = opt_.device_mb << 20,
                                .shadow = true});
    Donor donor(opt_.device_mb);
    if (!donor.ctx) {
        error_ = "donor heap attach failed";
        return false;
    }
    sizes_.assign(kSlots, 0);
    uint64_t table_off = 0;
    // What the previous round left for this open's recovery to resolve.
    bool pending_crash = false;
    bool pending_tx_crash = false;

    // The open after the last round is the final one: it runs the
    // recovery check and the final sweep, and no event.
    for (unsigned round = 0;; ++round) {
        ChaosEvent ev = ChaosEvent(round % kEventCount);
        if (opt_.verbose && round < opt_.rounds)
            std::fprintf(stderr, "chaos: round %u event %s\n", round,
                         chaosEventName(ev));

        armRoundFaults(dev, round);
        auto heap_h = NvAlloc::openOrDie(dev, config());
        NvAlloc &heap = *heap_h;
        if (heap.openStatus() != NvStatus::Ok)
            return fail(round, ev, "heap failed to open");
        ThreadCtx *ctx = heap.attachThread();
        if (!ctx)
            return fail(round, ev, "attach failed");
        if (round == 0)
            table_off = newSlotTable(heap, *ctx);
        if (table_off == 0)
            return fail(round, ev, "slot table alloc failed");

        // Whatever the previous round did (including a mid-operation
        // crash), recovery converged to a clean heap.
        if (!recovered(heap, table_off, pending_crash, pending_tx_crash,
                       round, ev))
            return false;
        if (round == opt_.rounds)
            return finalSweep(heap, *ctx, table_off);
        auto *slots = static_cast<uint64_t *>(heap.at(table_off));

        ++injected_[unsigned(ev)];
        pending_crash = ev == ChaosEvent::Crash;
        pending_tx_crash = false;
        if (pending_crash ||
            (ev == ChaosEvent::TornTx &&
             heap.config().consistency == Consistency::Log)) {
            pending_tx_crash =
                crashRound(ev, heap, *ctx, dev, slots, round);
            ++rounds_run_;
            continue;
        }
        if (ev == ChaosEvent::TornTx) {
            // Transactions are LOG-only (txBegin itself refuses on the
            // other variants): the class degrades to a documented skip
            // and the round runs as plain churn.
            ++skipped_[unsigned(ev)];
        }

        churn(heap, *ctx, slots, opt_.ops_per_round, dev,
              /*crash_mode=*/false);
        if (!inject(ev, heap, *ctx, dev, slots, round, donor.offs))
            return false;

        // Containment: repair what is repairable (smashed header,
        // poisoned free line), then the heap must audit clean again.
        {
            HeapAuditor auditor(heap);
            auditor.repair();
            AuditReport rep = auditor.audit();
            if (rep.violations() != 0)
                return fail(round, ev,
                            "post-round audit:\n" + rep.summary());
        }
        heap.detachThread(ctx);
        ++rounds_run_;
    }
}

} // namespace nvalloc

#endif // NVALLOC_TOOLS_CHAOS_HARNESS_H
