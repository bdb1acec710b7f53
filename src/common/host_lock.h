/**
 * @file
 * The host lock under every VLock and tx-registry shard.
 *
 * One 4-byte futex word: 0 free, 1 held, 2 held with sleepers (the
 * three-state mutex of Drepper's "Futexes Are Tricky"). lock() takes a
 * free word with one CAS. On contention it spins kSpinPauses `pause`
 * instructions, retrying whenever the word reads free, and only then
 * marks the word 2 and parks with std::atomic::wait. unlock() calls
 * notify_one only when the word it released read 2, so a hand-off
 * between spinners makes no system call.
 *
 * The sections it guards are short (an extent split, a KV stripe's
 * record update, a shard's set insert: 1-3 µs), the same reason
 * jemalloc's mutex spins before it blocks. Parking on the first failed try, as
 * glibc's std::mutex does, costs a contended waiter a 20-30 µs futex
 * wait and wake round trip for each such section.
 *
 * The virtual model never charges for this lock: VLock prices
 * contention on the virtual clocks through its VServer, which takes no
 * lock of its own. The host lock decides only the order in which
 * contending holds are booked.
 */

#ifndef NVALLOC_COMMON_HOST_LOCK_H
#define NVALLOC_COMMON_HOST_LOCK_H

#include <atomic>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nvalloc {

class HostLock
{
  public:
    /**
     * Pauses a contended lock() spends before it parks: about 3 µs,
     * at 14 ns per `pause` on the 4-vCPU Xeon host the repo
     * benchmark runs on, past the 1-3 µs sections these locks guard.
     * On that host 17% of the large allocator's acquisitions in
     * `alloc-large-churn` were contended (about 700 K of 4.10 M per
     * run under std::mutex); with this spin the workload's p99
     * latency fell from 21.7 to 10.5 µs (EXPERIMENTS.md, "Wall clock
     * — lock handoff").
     */
    static constexpr unsigned kSpinPauses = 200;

    void
    lock()
    {
        uint32_t free = kFree;
        if (!word_.compare_exchange_strong(free, kHeld,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed))
            lockContended();
    }

    void
    unlock()
    {
        if (word_.exchange(kFree, std::memory_order_release) == kSleepers)
            word_.notify_one();
    }

  private:
    static constexpr uint32_t kFree = 0;
    static constexpr uint32_t kHeld = 1;
    static constexpr uint32_t kSleepers = 2;

    static void
    cpuRelax()
    {
#if defined(__x86_64__)
        _mm_pause();
#endif
    }

    void
    lockContended()
    {
        for (unsigned i = 0; i < kSpinPauses; ++i) {
            cpuRelax();
            uint32_t w = word_.load(std::memory_order_relaxed);
            if (w == kFree &&
                word_.compare_exchange_weak(w, kHeld,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
                return;
        }
        // Mark sleepers before parking, so the holder's unlock wakes
        // one of us. A thread that wins the word here holds it marked:
        // its own unlock then wakes one sleeper, if any remain.
        while (word_.exchange(kSleepers, std::memory_order_acquire) !=
               kFree)
            word_.wait(kSleepers, std::memory_order_relaxed);
    }

    std::atomic<uint32_t> word_{kFree};
};

} // namespace nvalloc

#endif // NVALLOC_COMMON_HOST_LOCK_H
