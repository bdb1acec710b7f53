#include "pm/vclock.h"

#include <algorithm>

#include "common/logging.h"

namespace nvalloc {

namespace {

struct ThreadClock
{
    uint64_t now = 0;
    std::array<uint64_t, kNumTimeKinds> kinds{};
};

thread_local ThreadClock tl_clock;

} // namespace

uint64_t
VClock::now()
{
    return tl_clock.now;
}

void
VClock::advance(uint64_t ns, TimeKind kind)
{
    tl_clock.now += ns;
    tl_clock.kinds[static_cast<unsigned>(kind)] += ns;
}

void
VClock::advanceTo(uint64_t t, TimeKind kind)
{
    if (t > tl_clock.now) {
        tl_clock.kinds[static_cast<unsigned>(kind)] += t - tl_clock.now;
        tl_clock.now = t;
    }
}

void
VClock::reset()
{
    tl_clock = ThreadClock{};
}

void
VClock::setNow(uint64_t t)
{
    tl_clock.now = t;
}

uint64_t
VClock::kindTotal(TimeKind kind)
{
    return tl_clock.kinds[static_cast<unsigned>(kind)];
}

std::array<uint64_t, kNumTimeKinds>
VClock::snapshot()
{
    return tl_clock.kinds;
}

VServer::VServer(unsigned units, uint64_t window_ns)
    : window_ns_(window_ns), units_(units),
      capacity_(uint64_t(units) * window_ns)
{
    NV_ASSERT(units > 0 && window_ns > 0 && capacity_ < (uint64_t{1} << 32));
}

VServer::~VServer()
{
    delete[] ring_.load(std::memory_order_relaxed);
}

std::atomic<uint64_t> *
VServer::words()
{
    std::atomic<uint64_t> *ring = ring_.load(std::memory_order_acquire);
    if (ring)
        return ring;
    // Every word starts as epoch 0, busy 0: window i maps to slot i.
    auto *fresh = new std::atomic<uint64_t>[kWindows]{};
    if (ring_.compare_exchange_strong(ring, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
        return fresh;
    delete[] fresh; // another booking installed its ring first
    return ring;
}

uint64_t
VServer::reserve(uint64_t arrival, uint64_t hold_ns)
{
    if (hold_ns == 0)
        return arrival;
    std::atomic<uint64_t> *ring = words();

    uint64_t w = arrival / window_ns_;
    if (uint32_t(ring[w % kWindows].load(std::memory_order_relaxed) >> 32) >
        uint32_t(w / kWindows))
        late_.fetch_add(1, std::memory_order_relaxed);

    // Claim a share of each window from the arrival's on, skipping
    // full ones, until the hold is booked. The start time reflects how
    // much of the first claimed window was already booked (holds are
    // packed from the window start; sub-window ordering is below the
    // model's resolution).
    uint64_t start = 0;
    uint64_t remaining = hold_ns;
    for (bool first = true;; ++w) {
        std::atomic<uint64_t> &slot = ring[w % kWindows];
        uint64_t epoch = uint32_t(w / kWindows);
        uint64_t word = slot.load(std::memory_order_relaxed);
        uint64_t busy, use = 0;
        do {
            // A word from another epoch is a stale window: empty.
            busy = (word >> 32) == epoch ? word & 0xffffffffu : 0;
            if (busy >= capacity_)
                break;
            use = std::min(remaining, capacity_ - busy);
        } while (!slot.compare_exchange_weak(word,
                                             (epoch << 32) | (busy + use),
                                             std::memory_order_relaxed));
        if (busy >= capacity_)
            continue;
        if (first) {
            start = std::max(arrival, w * window_ns_ + busy / units_);
            first = false;
        }
        remaining -= use;
        if (remaining == 0)
            return start;
    }
}

void
VServer::reset()
{
    if (std::atomic<uint64_t> *ring = ring_.load(std::memory_order_acquire))
        for (unsigned i = 0; i < kWindows; ++i)
            ring[i].store(0, std::memory_order_relaxed);
    late_.store(0, std::memory_order_relaxed);
}

} // namespace nvalloc
