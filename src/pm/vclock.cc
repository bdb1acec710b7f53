#include "pm/vclock.h"

#include <cstring>
#include <mutex>

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
    : window_ns_(window_ns), capacity_(uint64_t(units) * window_ns)
{
}

uint64_t &
VServer::slotBusy(uint64_t window)
{
    unsigned slot = unsigned(window % kWindows);
    if (tag_[slot] != window) {
        // Stale slot from a window far in the past: recycle.
        tag_[slot] = window;
        busy_[slot] = 0;
    }
    return busy_[slot];
}

uint64_t
VServer::reserve(uint64_t arrival, uint64_t hold_ns)
{
    if (hold_ns == 0)
        return arrival;
    std::lock_guard<HostLock> g(mutex_);

    if (!touched_) {
        busy_ = std::make_unique<uint64_t[]>(kWindows);
        tag_ = std::make_unique<uint64_t[]>(kWindows);
        std::memset(busy_.get(), 0, kWindows * sizeof(uint64_t));
        // Tag 0 is valid for window 0; mark others stale.
        for (unsigned i = 0; i < kWindows; ++i)
            tag_[i] = i; // identity: window i maps to slot i initially
        touched_ = true;
    }

    // First window at/after the arrival with spare capacity.
    uint64_t w = arrival / window_ns_;
    while (slotBusy(w) >= capacity_)
        ++w;

    // The start time reflects how much of this window is already
    // booked (holds are packed from the window start; sub-window
    // ordering is below the model's resolution).
    uint64_t within = slotBusy(w);
    uint64_t start = w * window_ns_ + within / (capacity_ / window_ns_);
    if (start < arrival)
        start = arrival;

    // Book the hold, spilling into subsequent windows.
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

void
VServer::reset()
{
    std::lock_guard<HostLock> g(mutex_);
    touched_ = false;
    busy_.reset();
    tag_.reset();
}

} // namespace nvalloc
