/**
 * @file
 * Fault-contained heap pool (DESIGN.md §12).
 *
 * A HeapPool manages N named per-tenant NVAlloc heaps, each on its own
 * PmDevice, and turns the per-heap health machine (status.h) into a
 * pool-level containment guarantee:
 *
 *  - every member opens with fault_containment forced on, so detected
 *    corruption — hardened-free reports, patrol-scrub findings, audit
 *    failures, failed recoveries — transitions the *victim* to
 *    Degraded/Quarantined and makes it refuse new mutations with
 *    NvStatus::HeapUnhealthy, while every sibling keeps serving with
 *    zero failed operations (heaps share no metadata: the blast radius
 *    of one tenant's corruption is structurally confined to its own
 *    device);
 *  - per-tenant capacity quotas ride the member config
 *    (capacity_quota_bytes, enforced on the extent path);
 *  - a second open of an already-registered name returns the existing
 *    member when the offered config is identical, and refuses with
 *    InvalidArgument — recorded on the existing member's sticky status
 *    so nvalloc_errno-style probes see it — when it differs. Silent
 *    first-wins config adoption is exactly the kind of cross-tenant
 *    surprise a pool exists to prevent;
 *  - members open, close, crash and recover independently: a sibling
 *    open or recovery is legal (and tested) while another member sits
 *    quarantined;
 *  - restore(name) is the repair path: run the auditor's fixups on the
 *    victim (reopening it first when the image failed recovery), then
 *    re-audit and return it to Serving only when clean.
 *
 * The pool itself holds only a name→member map under one mutex; member
 * traffic never takes that mutex, so pool bookkeeping cannot become a
 * cross-tenant serialization point. Health escalations are observed
 * through each member's HealthHook, which by contract only records
 * (the hook can fire under heap locks).
 */

#ifndef NVALLOC_NVALLOC_POOL_H
#define NVALLOC_NVALLOC_POOL_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nvalloc/nvalloc.h"

namespace nvalloc {

class HeapPool
{
  public:
    /** Outcome of open()/reopen(). `heap` is non-null for Ok (usable),
     *  and for CorruptMetadata (member kept, Quarantined, read-only
     *  introspection + restore()); null for InvalidArgument. */
    struct MemberResult
    {
        NvStatus status = NvStatus::Ok;
        NvAlloc *heap = nullptr;
        bool existing = false; //!< same name + same config re-open

        explicit operator bool() const { return status == NvStatus::Ok; }
    };

    /** One member's health, snapshot under the pool lock. */
    struct MemberHealth
    {
        std::string name;
        HeapHealth health = HeapHealth::Serving;
        uint64_t escalations = 0;
        uint64_t rejected_ops = 0;
        std::string last_reason; //!< most recent escalation reason
    };

    /** Pool-level counters (all relaxed; hook-side writers). */
    struct Stats
    {
        std::atomic<uint64_t> opens{0};
        std::atomic<uint64_t> reopen_hits{0}; //!< same-config re-opens
        std::atomic<uint64_t> option_mismatches{0};
        std::atomic<uint64_t> escalations{0};  //!< across all members
        std::atomic<uint64_t> quarantines{0};  //!< to Quarantined
        std::atomic<uint64_t> restores{0};     //!< restore() successes
    };

    HeapPool() = default;
    ~HeapPool() = default;

    HeapPool(const HeapPool &) = delete;
    HeapPool &operator=(const HeapPool &) = delete;

    /**
     * Open (create or recover) member `name` on `dev`. The pool forces
     * cfg.fault_containment on — that is its contract — and remembers
     * the resulting config: a later open of the same name returns the
     * existing heap when the offered config is identical
     * (result.existing), and InvalidArgument when it differs (also
     * recorded on the existing member's sticky lastStatus()).
     * A member whose image fails recovery is *kept*, Quarantined, so
     * restore() and per-heap fsck can work on it; its siblings are
     * untouched either way.
     */
    MemberResult open(const std::string &name, PmDevice &dev,
                      NvAllocConfig cfg = {});

    /** The member heap, or nullptr. The pointer stays valid until
     *  close()/reopen() of that name or pool destruction. */
    NvAlloc *find(const std::string &name) const;

    /** Normal shutdown of one member; the pool entry is removed.
     *  InvalidArgument for an unknown name. */
    NvStatus close(const std::string &name);

    /**
     * Tear down and re-open member `name` on its remembered device and
     * config — the crash-recovery path (the caller typically crashed
     * the member via simulateCrash() first; a crashed instance's
     * destructor touches no PM). Siblings keep serving throughout.
     */
    MemberResult reopen(const std::string &name);

    /**
     * Repair path for a Degraded/Quarantined member: reopen first if
     * its image failed recovery, run HeapAuditor::repair(), then
     * NvAlloc::restoreHealth() (re-audit; Serving only when clean).
     * Returns Ok, CorruptMetadata when the image stays unrecoverable,
     * or InvalidArgument for an unknown name.
     */
    NvStatus restore(const std::string &name);

    /** Member names, sorted (std::map order). */
    std::vector<std::string> names() const;

    size_t size() const;

    /** Health snapshot of every member. */
    std::vector<MemberHealth> snapshot() const;

    const Stats &stats() const { return stats_; }

  private:
    struct Member
    {
        PmDevice *dev = nullptr;
        NvAllocConfig cfg; //!< normalized config the member opened with
        std::unique_ptr<NvAlloc> heap;
    };

    void installHook(const std::string &name, NvAlloc *heap);

    MemberResult openLocked(const std::string &name, PmDevice &dev,
                            const NvAllocConfig &cfg);

    /** Guards members_. Never held while member heaps run traffic —
     *  only around map lookups/mutations and open/close/recover of the
     *  one member being operated on. */
    mutable std::mutex mu_;
    std::map<std::string, Member> members_;

    /** Leaf lock for hook-side reason recording: the health hook fires
     *  under heap locks, so it must never take mu_ (a pool thread
     *  holding mu_ may be walking that same heap). */
    mutable std::mutex reason_mu_;
    std::map<std::string, std::string> last_reasons_;

    Stats stats_;
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_POOL_H
