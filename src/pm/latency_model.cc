#include "pm/latency_model.h"

#include <cstring>

#include "common/size_classes.h"

namespace nvalloc {

namespace {

constexpr unsigned kMruCap = 8;      // recent distinct lines tracked
constexpr uint64_t kXpLine = 256;    // Optane internal write granule
constexpr unsigned kXpBufLines = 64; // XPBuffer: 16 KB of 256 B XPLines [40]
constexpr unsigned kXpIndexSlots = 2 * kXpBufLines; // at most half full
constexpr uint8_t kNoNode = 0xff;

/** Owner-thread increment of a count block cell: only the owning
 *  thread writes it, so a relaxed load + store replaces a fetch_add. */
void
bump(std::atomic<uint64_t> &a)
{
    a.store(a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

/**
 * The XPLines one thread's flushes hold in the XPBuffer, in LRU order:
 * kXpBufLines fixed nodes on a doubly linked list (head = most recently
 * used), found through an open-addressed index with linear probing, so
 * a flush costs O(1) at any capacity.
 */
class XpBuffer
{
  public:
    /** True if the XPLine was buffered; either way it becomes the most
     *  recently used, and a miss into a full buffer evicts the least
     *  recently used. */
    bool
    touch(uint64_t xpline)
    {
        unsigned i = home(xpline);
        for (; index_[i] != 0; i = (i + 1) % kXpIndexSlots) {
            uint8_t n = uint8_t(index_[i] - 1);
            if (line_[n] == xpline) {
                if (head_ != n) {
                    unlink(n);
                    pushFront(n);
                }
                return true;
            }
        }
        uint8_t n;
        if (size_ < kXpBufLines) {
            n = size_++;
        } else {
            n = tail_;
            unlink(n);
            forget(line_[n]);
            i = home(xpline);
            while (index_[i] != 0)
                i = (i + 1) % kXpIndexSlots;
        }
        line_[n] = xpline;
        index_[i] = uint8_t(n + 1);
        pushFront(n);
        return false;
    }

  private:
    static_assert(kXpIndexSlots == 128, "home() hashes to 7 bits");

    static unsigned
    home(uint64_t xpline)
    {
        return unsigned((xpline / kXpLine) * 0x9e3779b97f4a7c15ULL >> 57);
    }

    /** Drop `xpline` from the index, shifting later entries of its
     *  probe run back so every lookup still finds them. */
    void
    forget(uint64_t xpline)
    {
        unsigned i = home(xpline);
        while (line_[index_[i] - 1] != xpline)
            i = (i + 1) % kXpIndexSlots;
        for (unsigned j = (i + 1) % kXpIndexSlots; index_[j] != 0;
             j = (j + 1) % kXpIndexSlots) {
            unsigned h = home(line_[index_[j] - 1]);
            // The entry at j may fill the hole at i only if its probe
            // from h passes i.
            if ((j - h) % kXpIndexSlots >= (j - i) % kXpIndexSlots) {
                index_[i] = index_[j];
                i = j;
            }
        }
        index_[i] = 0;
    }

    void
    unlink(uint8_t n)
    {
        (prev_[n] != kNoNode ? next_[prev_[n]] : head_) = next_[n];
        (next_[n] != kNoNode ? prev_[next_[n]] : tail_) = prev_[n];
    }

    void
    pushFront(uint8_t n)
    {
        prev_[n] = kNoNode;
        next_[n] = head_;
        (head_ != kNoNode ? prev_[head_] : tail_) = n;
        head_ = n;
    }

    uint64_t line_[kXpBufLines] = {};
    uint8_t prev_[kXpBufLines] = {};
    uint8_t next_[kXpBufLines] = {};
    uint8_t index_[kXpIndexSlots] = {}; //!< node + 1; 0 = empty slot
    uint8_t head_ = kNoNode;
    uint8_t tail_ = kNoNode;
    uint8_t size_ = 0;
};

} // namespace

/**
 * Per-thread flush history. Stored thread-locally and keyed by (model,
 * generation) so that reset() on one model cannot leak stale recency
 * state into the next benchmark phase, and several devices can be live
 * at once. The model's unique id tells a reset model (same id, new
 * generation: keep the count block) from a new model at a recycled
 * address (new id: register a new block).
 */
struct LatencyModel::ThreadState
{
    const LatencyModel *owner = nullptr;
    uint64_t model_id = 0;
    uint64_t generation = 0;

    // This thread's counters in the model; kept across reset(), which
    // zeroes the block in place.
    CountBlock *counts = nullptr;

    // MRU list of recently flushed 64 B lines, deduplicated.
    uint64_t mru[kMruCap] = {};
    unsigned mru_len = 0;

    XpBuffer xpbuf;

    uint64_t last_miss_xpline = ~uint64_t{0};

    /** Reflush distance of `line`, or kMruCap if the line was not
     *  flushed recently (a fresh line is never a reflush, no matter
     *  how short the history is). Also moves/inserts the line to the
     *  MRU front. */
    unsigned
    touchLine(uint64_t line)
    {
        unsigned found = mru_len;
        for (unsigned i = 0; i < mru_len; ++i) {
            if (mru[i] == line) {
                found = i;
                break;
            }
        }
        bool fresh = found == mru_len;
        unsigned shift_end =
            fresh ? (mru_len < kMruCap ? mru_len : kMruCap - 1) : found;
        for (unsigned i = shift_end; i > 0; --i)
            mru[i] = mru[i - 1];
        mru[0] = line;
        if (fresh && mru_len < kMruCap)
            ++mru_len;
        return fresh ? kMruCap : found;
    }
};

namespace {

// One slot per live model this thread has touched.
thread_local std::vector<LatencyModel::ThreadState> tl_states;

// Model ids and generations are drawn from a process-wide counter,
// never reused. Slots in tl_states are matched by (owner pointer, id,
// generation); if a destroyed model's address is recycled for a new
// one, a per-model counter would restart at the same value and the
// stale thread history (and count block) would wrongly match.
std::atomic<uint64_t> g_generation{1};

} // namespace

LatencyModel::LatencyModel(LatencyParams params)
    : params_(params),
      id_(g_generation.fetch_add(1, std::memory_order_relaxed)),
      media_(params.media_slots)
{
    generation_.store(id_, std::memory_order_relaxed);
}

// (media_ is a VServer with params.media_slots parallel units.)

LatencyModel::ThreadState &
LatencyModel::threadState()
{
    uint64_t gen = generation_.load(std::memory_order_relaxed);
    ThreadState *slot = nullptr;
    for (auto &ts : tl_states) {
        if (ts.owner == this) {
            if (ts.model_id == id_ && ts.generation == gen)
                return ts;
            slot = &ts;
            break;
        }
    }
    // A reset of this model keeps the thread's count block and drops
    // its history; a first touch, or a new model at a dead one's
    // address, registers a block.
    CountBlock *counts =
        slot && slot->model_id == id_ ? slot->counts : registerBlock();
    if (!slot)
        slot = &tl_states.emplace_back();
    *slot = ThreadState{};
    slot->owner = this;
    slot->model_id = id_;
    slot->generation = gen;
    slot->counts = counts;
    return *slot;
}

LatencyModel::CountBlock *
LatencyModel::registerBlock()
{
    std::lock_guard<std::mutex> g(blocks_mutex_);
    return &blocks_.emplace_back();
}

void
LatencyModel::noteClass(FlushClass cls, ThreadState &ts)
{
    bump(ts.counts->cls[static_cast<unsigned>(cls)]);
}

void
LatencyModel::chargeMedia(uint64_t line, ThreadState &ts, TimeKind kind)
{
    uint64_t xpline = line & ~(kXpLine - 1);
    bool sequential = (xpline == ts.last_miss_xpline ||
                       xpline == ts.last_miss_xpline + kXpLine);
    ts.last_miss_xpline = xpline;

    uint64_t cost = sequential ? params_.media_seq : params_.media_random;
    noteClass(sequential ? FlushClass::Sequential : FlushClass::Random,
              ts);

    // Media writes share the drain bandwidth; queueing delay appears
    // as the booked start moving past the thread's current clock.
    uint64_t start = media_.reserve(VClock::now(), cost);
    VClock::advanceTo(start + cost, kind);
}

void
LatencyModel::onFlush(uint64_t line, TimeKind kind)
{
    if (tracing_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> g(trace_mutex_);
        if (trace_.size() < trace_cap_)
            trace_.push_back(line);
    }

    ThreadState &ts = threadState();

    VClock::advance(params_.issue, kind);

    unsigned distance = ts.touchLine(line);
    if (distance < params_.reflush_window) {
        // Reflush: the line is still being written back; cost shrinks
        // as the distance grows (paper: 800 ns at 0 down to 500 at 3).
        noteClass(FlushClass::Reflush, ts);
        uint64_t cost = params_.reflush_base -
                        params_.reflush_step * distance;
        VClock::advance(cost, kind);
        return;
    }

    uint64_t xpline = line & ~(kXpLine - 1);
    if (ts.xpbuf.touch(xpline)) {
        noteClass(FlushClass::XpLineHit, ts);
        VClock::advance(params_.xpline_hit, kind);
    } else {
        chargeMedia(line, ts, kind);
    }
}

void
LatencyModel::onFence()
{
    bump(threadState().counts->fences);
    VClock::advance(params_.fence, TimeKind::Fence);
}

void
LatencyModel::reset()
{
    generation_.store(g_generation.fetch_add(1, std::memory_order_relaxed),
                      std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> g(blocks_mutex_);
        for (CountBlock &b : blocks_) {
            for (auto &c : b.cls)
                c.store(0, std::memory_order_relaxed);
            b.fences.store(0, std::memory_order_relaxed);
        }
    }
    media_.reset();
}

FlushClassCounts
LatencyModel::counts() const
{
    uint64_t cls[kNumFlushClasses] = {};
    FlushClassCounts c;
    std::lock_guard<std::mutex> g(blocks_mutex_);
    for (const CountBlock &b : blocks_) {
        for (unsigned i = 0; i < kNumFlushClasses; ++i)
            cls[i] += b.cls[i].load(std::memory_order_relaxed);
        c.fences += b.fences.load(std::memory_order_relaxed);
    }
    c.reflush = cls[unsigned(FlushClass::Reflush)];
    c.sequential = cls[unsigned(FlushClass::Sequential)];
    c.random = cls[unsigned(FlushClass::Random)];
    c.xpline_hit = cls[unsigned(FlushClass::XpLineHit)];
    // Every flush is served in exactly one class.
    c.total = c.reflush + c.sequential + c.random + c.xpline_hit;
    return c;
}

void
LatencyModel::startTrace(size_t max_entries)
{
    std::lock_guard<std::mutex> g(trace_mutex_);
    trace_.clear();
    trace_cap_ = max_entries;
    tracing_.store(true, std::memory_order_relaxed);
}

std::vector<uint64_t>
LatencyModel::stopTrace()
{
    // Idempotent: a stop with no trace running (never started, or
    // already stopped) leaves an empty buffer behind and returns an
    // empty vector, so unbalanced start/stop pairs cannot hand out a
    // stale trace or touch a moved-from vector.
    std::vector<uint64_t> out;
    std::lock_guard<std::mutex> g(trace_mutex_);
    tracing_.store(false, std::memory_order_relaxed);
    trace_cap_ = 0;
    out.swap(trace_);
    return out;
}

bool
LatencyModel::tracing() const
{
    return tracing_.load(std::memory_order_relaxed);
}

} // namespace nvalloc
