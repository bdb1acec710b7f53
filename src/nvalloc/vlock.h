/**
 * @file
 * Mutex with virtual-time contention modeling.
 *
 * Wraps a HostLock for actual correctness under concurrency (it
 * spins about 3 µs, then parks; common/host_lock.h) and mirrors every
 * hold in virtual time through a VServer: at unlock, the elapsed
 * virtual hold is booked into the lock's windowed capacity, and
 * whatever queueing delay the booking implies is added to the
 * holder's clock. Threads that hammer a hot arena therefore
 * accumulate virtual wait exactly as they would accumulate wall-clock
 * wait on a real multicore — which is what makes thread-scaling curves
 * meaningful on a single-core host — while uncontended locks cost
 * nothing. How the host lock hands over changes no virtual cost, only
 * the order in which contending holds are booked. The booking runs
 * under the host lock and takes none of its own: VServer is lock-free.
 */

#ifndef NVALLOC_NVALLOC_VLOCK_H
#define NVALLOC_NVALLOC_VLOCK_H

#include <cstdint>
#include <mutex>

#include "common/host_lock.h"
#include "common/logging.h"
#include "pm/vclock.h"

namespace nvalloc {

/**
 * Monotonic count of VLock acquisitions by this thread. A counter, not
 * a depth: lock/unlock pairs do not restore it, so a scope that must
 * stay lock-free (VLockFreeScope) can detect even a perfectly balanced
 * acquire-release inside itself.
 */
inline thread_local uint64_t tl_vlock_acquisitions = 0;

class VLock
{
  public:
    void
    lock()
    {
        mutex_.lock();
        ++tl_vlock_acquisitions;
        entry_ = VClock::now();
    }

    void
    unlock()
    {
        uint64_t hold = VClock::now() - entry_;
        if (hold > 0) {
            uint64_t start = server_.reserve(entry_, hold);
            VClock::advanceTo(start + hold, TimeKind::LockWait);
        }
        mutex_.unlock();
    }

    void reset() { server_.reset(); }

  private:
    HostLock mutex_;
    VServer server_;
    uint64_t entry_ = 0; //!< holder's clock at acquisition
};

using VLockGuard = std::lock_guard<VLock>;

/**
 * Debug assertion that a region acquires no VLock — the ISSUE 9
 * acceptance check for the small alloc/free hit path. Release builds
 * compile it away entirely. Deliberately scoped to the allocator's own
 * locks: the virtual-time substrate (VServer bookings, telemetry
 * shards) may synchronize internally without modeling — or
 * constituting — allocator serialization.
 */
class VLockFreeScope
{
#ifndef NDEBUG
  public:
    VLockFreeScope() : entry_(tl_vlock_acquisitions) {}

    ~VLockFreeScope()
    {
        NV_ASSERT(tl_vlock_acquisitions == entry_ &&
                  "hot path acquired a VLock");
    }

  private:
    uint64_t entry_;
#endif
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_VLOCK_H
