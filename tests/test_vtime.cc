/**
 * @file
 * Tests of the virtual-time machinery: per-thread clocks with kind
 * attribution, the windowed capacity server (VServer) against a copy of
 * its earlier locked ring, the contention-modeling lock (VLock), and
 * the host lock under it (HostLock): mutual exclusion, parked waiters
 * and hand-offs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/host_lock.h"
#include "common/rng.h"
#include "nvalloc/vlock.h"
#include "pm/vclock.h"

namespace nvalloc {
namespace {

TEST(VClock, AdvanceAndAttribution)
{
    VClock::reset();
    EXPECT_EQ(VClock::now(), 0u);
    VClock::advance(100, TimeKind::FlushMeta);
    VClock::advance(50, TimeKind::Search);
    EXPECT_EQ(VClock::now(), 150u);
    EXPECT_EQ(VClock::kindTotal(TimeKind::FlushMeta), 100u);
    EXPECT_EQ(VClock::kindTotal(TimeKind::Search), 50u);

    VClock::advanceTo(120, TimeKind::Other); // in the past: no-op
    EXPECT_EQ(VClock::now(), 150u);
    VClock::advanceTo(200, TimeKind::Other);
    EXPECT_EQ(VClock::now(), 200u);
    EXPECT_EQ(VClock::kindTotal(TimeKind::Other), 50u);
}

TEST(VClock, SetNowDoesNotAttribute)
{
    VClock::reset();
    VClock::setNow(5000);
    EXPECT_EQ(VClock::now(), 5000u);
    auto snap = VClock::snapshot();
    for (auto v : snap)
        EXPECT_EQ(v, 0u);
}

TEST(VClock, PerThreadIsolation)
{
    VClock::reset();
    VClock::advance(1000, TimeKind::Other);
    std::thread([&] {
        VClock::reset();
        EXPECT_EQ(VClock::now(), 0u);
        VClock::advance(7, TimeKind::Other);
        EXPECT_EQ(VClock::now(), 7u);
    }).join();
    EXPECT_EQ(VClock::now(), 1000u);
}

TEST(VServer, NoWaitBelowCapacity)
{
    VServer server(1);
    // Sparse requests: each starts exactly at its arrival.
    for (uint64_t t = 0; t < 10; ++t)
        EXPECT_EQ(server.reserve(t * 10000, 100), t * 10000);
}

TEST(VServer, SerializesSameArrival)
{
    VServer server(1);
    // Ten holds all arriving at t=0 must queue one after another.
    uint64_t last_start = 0;
    for (int i = 0; i < 10; ++i) {
        uint64_t start = server.reserve(0, 1000);
        EXPECT_GE(start, last_start);
        last_start = start;
    }
    // The tenth hold cannot start before 9 holds' worth of busy time.
    EXPECT_GE(last_start, 9000u);
}

TEST(VServer, BackfillsPastIdleWindows)
{
    VServer server(1, 1000); // 1 us windows
    // A thread far in the virtual future books a hold...
    EXPECT_EQ(server.reserve(50'000, 500), 50'000u);
    // ...but a request from the virtual past is served in the idle
    // capacity back then — no fake queueing behind the future hold.
    EXPECT_LE(server.reserve(100, 200), 1000u);
}

TEST(VServer, ParallelUnitsMultiplyCapacity)
{
    VServer one(1, 1000), four(4, 1000);
    uint64_t last_one = 0, last_four = 0;
    for (int i = 0; i < 16; ++i) {
        last_one = one.reserve(0, 500);
        last_four = four.reserve(0, 500);
    }
    // 16 holds of 500ns: 1 unit needs ~8 windows, 4 units ~2 windows.
    EXPECT_GT(last_one, 3 * last_four);
}

TEST(VServer, ZeroHoldIsFree)
{
    VServer server(1);
    EXPECT_EQ(server.reserve(123, 0), 123u);
}

TEST(VServer, ResetClearsHistory)
{
    VServer server(1);
    server.reserve(0, 1'000'000);
    server.reset();
    EXPECT_EQ(server.reserve(0, 100), 0u);
}

TEST(VServer, CountsBookingsBehindTheHorizon)
{
    VServer server(1, 1000);
    // Window 512 takes slot 0 for ring epoch 1.
    EXPECT_EQ(server.reserve(512'000, 100), 512'000u);
    EXPECT_EQ(server.lateBookings(), 0u);
    // Window 0 maps to the same slot a whole ring behind: it is served
    // as an idle window, as it always was, and counted as late.
    EXPECT_EQ(server.reserve(0, 100), 0u);
    EXPECT_EQ(server.lateBookings(), 1u);
    server.reset();
    EXPECT_EQ(server.lateBookings(), 0u);
}

/**
 * The windowed capacity server as it was before it went lock-free: a
 * host lock around a ring of busy counts tagged with their absolute
 * window. A slot tagged with another window is recycled on touch.
 * Kept here only as the reference VServer must match.
 */
class LockedRing
{
  public:
    LockedRing(unsigned units, uint64_t window_ns)
        : window_ns_(window_ns), capacity_(uint64_t(units) * window_ns)
    {
        for (unsigned i = 0; i < kWindows; ++i)
            tag_[i] = i;
    }

    uint64_t
    reserve(uint64_t arrival, uint64_t hold_ns)
    {
        if (hold_ns == 0)
            return arrival;
        std::lock_guard<HostLock> g(mutex_);
        uint64_t w = arrival / window_ns_;
        while (slotBusy(w) >= capacity_)
            ++w;
        uint64_t within = slotBusy(w);
        uint64_t start = w * window_ns_ + within / (capacity_ / window_ns_);
        if (start < arrival)
            start = arrival;
        uint64_t remaining = hold_ns;
        uint64_t v = w;
        while (remaining > 0) {
            uint64_t &busy = slotBusy(v);
            uint64_t space = capacity_ - busy;
            uint64_t use = remaining < space ? remaining : space;
            busy += use;
            remaining -= use;
            if (remaining)
                ++v;
        }
        return start;
    }

  private:
    static constexpr unsigned kWindows = 512;

    uint64_t &
    slotBusy(uint64_t window)
    {
        unsigned slot = unsigned(window % kWindows);
        if (tag_[slot] != window) {
            tag_[slot] = window;
            busy_[slot] = 0;
        }
        return busy_[slot];
    }

    HostLock mutex_;
    uint64_t window_ns_;
    uint64_t capacity_;
    uint64_t busy_[kWindows] = {};
    uint64_t tag_[kWindows];
};

/**
 * Replays one seeded stream through both servers and compares every
 * start. Arrivals mostly creep forward at about the server's capacity,
 * so windows fill and holds queue and spill; 2% jump forward past idle
 * windows, and 0.1% jump back more than a ring (512 windows), where
 * the slot already holds a later epoch. Holds run from 1 ns to three
 * windows.
 */
void
replayAgainstLockedRing(unsigned units, uint64_t window_ns)
{
    constexpr unsigned kBookings = 120'000;
    constexpr uint64_t kRing = 512;
    VServer server(units, window_ns);
    LockedRing ref(units, window_ns);
    Rng rng(units * window_ns);
    uint64_t arrival = 2 * kRing * window_ns;
    uint64_t delayed = 0, spilled = 0;
    for (unsigned i = 0; i < kBookings; ++i) {
        uint64_t r = rng.nextBounded(1000);
        if (r < 20)
            arrival += (2 + rng.nextBounded(80)) * window_ns;
        else if (r == 20 && arrival > 2 * kRing * window_ns)
            arrival -= (kRing + 1 + rng.nextBounded(64)) * window_ns;
        else
            arrival += rng.nextBounded(2 * window_ns / (5 * units));
        uint64_t hold = rng.nextBounded(20) == 0
                            ? 1 + rng.nextBounded(3 * window_ns)
                            : 1 + rng.nextBounded(window_ns / 4);
        uint64_t want = ref.reserve(arrival, hold);
        ASSERT_EQ(server.reserve(arrival, hold), want)
            << "booking " << i << ": arrival " << arrival << ", hold "
            << hold;
        delayed += want > arrival;
        spilled += (want + hold - 1) / window_ns > want / window_ns;
    }
    // The stream exercised queueing, spill and the recycle rule.
    EXPECT_GT(delayed, kBookings / 10);
    EXPECT_GT(spilled, kBookings / 100);
    EXPECT_GT(server.lateBookings(), 0u);
}

TEST(VServer, MatchesTheLockedRingSingleThreaded)
{
    replayAgainstLockedRing(1, 1000);
    replayAgainstLockedRing(8, 200'000);
}

TEST(VServer, ConcurrentBookingsLoseNothing)
{
    // 20,000 holds of 100 ns, all arriving at 0, fill windows 0-199 of
    // 10 µs exactly, inside the ring: every start from 0 to 1,999,900
    // is taken once. A lost CAS update repeats a start and skips
    // another. (With 1 µs windows the holds would span 2,000 windows,
    // and the recycle rule would hand window 0 out again.)
    constexpr unsigned kThreads = 4;
    constexpr unsigned kHolds = 5'000;
    VServer server(1, 10'000);
    std::atomic<bool> go{false};
    std::vector<std::vector<uint64_t>> starts(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            starts[t].reserve(kHolds);
            while (!go.load())
                std::this_thread::yield();
            for (unsigned i = 0; i < kHolds; ++i)
                starts[t].push_back(server.reserve(0, 100));
        });
    go.store(true);
    for (auto &t : threads)
        t.join();
    std::vector<uint64_t> all;
    for (const auto &s : starts)
        all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), size_t(kThreads) * kHolds);
    for (size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], 100 * i) << "sorted start " << i;
    EXPECT_EQ(server.lateBookings(), 0u);
}

TEST(VLock, UncontendedLockAddsNoTime)
{
    VClock::reset();
    VLock lock;
    for (int i = 0; i < 100; ++i) {
        lock.lock();
        VClock::advance(50, TimeKind::Other);
        lock.unlock();
    }
    EXPECT_EQ(VClock::kindTotal(TimeKind::LockWait), 0u);
    EXPECT_EQ(VClock::now(), 5000u);
}

TEST(VLock, ContendedHoldsSerializeInVirtualTime)
{
    // Two threads, same virtual start, each holding the lock for 1000
    // virtual ns x 200 times: combined they must span >= ~400 us of
    // virtual time on at least one clock.
    VLock lock;
    uint64_t end[2] = {0, 0};
    std::thread t1([&] {
        VClock::reset();
        for (int i = 0; i < 200; ++i) {
            lock.lock();
            VClock::advance(1000, TimeKind::Other);
            lock.unlock();
        }
        end[0] = VClock::now();
    });
    std::thread t2([&] {
        VClock::reset();
        for (int i = 0; i < 200; ++i) {
            lock.lock();
            VClock::advance(1000, TimeKind::Other);
            lock.unlock();
        }
        end[1] = VClock::now();
    });
    t1.join();
    t2.join();
    // 400 holds x 1000 ns through one lock: the later finisher must
    // reflect near-full serialization (windows add slack).
    EXPECT_GE(std::max(end[0], end[1]), 330'000u);
}

TEST(VLock, HoldWithNoVirtualWorkIsFree)
{
    VClock::reset();
    VLock lock;
    lock.lock();
    lock.unlock(); // zero-duration hold books nothing
    EXPECT_EQ(VClock::now(), 0u);
}

TEST(HostLock, ContendedIncrementsAreExact)
{
    // A plain counter: any overlap of two critical sections would
    // lose an increment (and TSan would name the race).
    constexpr unsigned kThreads = 8;
    constexpr unsigned kIncrements = 50'000;
    HostLock lock;
    uint64_t counter = 0;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kIncrements; ++i) {
                std::lock_guard<HostLock> g(lock);
                ++counter;
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, uint64_t(kThreads) * kIncrements);
}

TEST(HostLock, WaitersParkedPastTheSpinAllAcquire)
{
    // The holder keeps the lock 25 ms, thousands of times the spin
    // budget, so every waiter parks; each release must wake the next.
    constexpr unsigned kWaiters = 6;
    HostLock lock;
    std::atomic<unsigned> started{0};
    unsigned acquired = 0; // guarded by lock
    lock.lock();
    std::vector<std::thread> waiters;
    for (unsigned t = 0; t < kWaiters; ++t)
        waiters.emplace_back([&] {
            started.fetch_add(1);
            std::lock_guard<HostLock> g(lock);
            ++acquired;
        });
    while (started.load() < kWaiters)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_EQ(acquired, 0u);
    lock.unlock();
    for (auto &t : waiters)
        t.join();
    std::lock_guard<HostLock> g(lock);
    EXPECT_EQ(acquired, kWaiters);
}

TEST(HostLock, TwoThreadsPingPongTheLock)
{
    // Each thread acts only on its own turn and passes the turn on,
    // so the lock changes hands on every step: a lost wake-up hangs
    // the test, a broken exclusion breaks the alternation.
    constexpr unsigned kSteps = 20'000;
    HostLock lock;
    unsigned turn = 0, steps = 0; // guarded by lock
    std::vector<unsigned> order;  // guarded by lock
    order.reserve(kSteps);
    auto player = [&](unsigned me) {
        for (;;) {
            {
                std::lock_guard<HostLock> g(lock);
                if (steps == kSteps)
                    return;
                if (turn == me) {
                    order.push_back(me);
                    turn = 1 - me;
                    ++steps;
                    continue;
                }
            }
            std::this_thread::yield(); // not our turn: let the other in
        }
    };
    std::thread a(player, 0u), b(player, 1u);
    a.join();
    b.join();
    ASSERT_EQ(order.size(), kSteps);
    for (unsigned i = 0; i < kSteps; ++i)
        ASSERT_EQ(order[i], i % 2) << "step " << i;
}

} // namespace
} // namespace nvalloc
