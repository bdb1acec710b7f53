/**
 * @file
 * google-benchmark microbenchmarks of the allocators' hot paths:
 * single-threaded malloc/free pairs for one small and one large size,
 * reporting both real wall time (code efficiency) and modeled virtual
 * ns per operation (the figure-level metric); plus the CRC-32C kernel
 * behind every persistent checksum, the wall cost of handing one
 * VLock between threads and that of threads sharing one device's
 * media server.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "nvalloc/vlock.h"
#include "pm/pm_device.h"
#include "workloads/harness.h"

using namespace nvalloc;

namespace {

/** Arg 0 picks the kernel (0 = crc32() as dispatched for this CPU,
 *  1 = the table reference); arg 1 the length: a slab geometry quintuple
 *  (16 B), a WAL entry (40 B), a typical KV record (205 B) and a 16 KiB
 *  KV value. */
void
BM_Crc32c(benchmark::State &state)
{
    auto *kernel = state.range(0) == 0 ? &crc32 : &detail::crc32cByTable;
    std::vector<uint8_t> buf(size_t(state.range(1)));
    Rng rng(1);
    for (auto &b : buf)
        b = uint8_t(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel(buf.data(), buf.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) * state.range(1));
}

void
allocFreePairs(benchmark::State &state, AllocKind kind, size_t size)
{
    auto dev = makeBenchDevice();
    auto alloc = makeAllocator(kind, *dev, {});
    AllocThread *t = alloc->threadAttach();
    VClock::reset();
    uint64_t v0 = VClock::now();
    uint64_t ops = 0;
    for (auto _ : state) {
        uint64_t off = alloc->allocTo(t, size, nullptr);
        benchmark::DoNotOptimize(off);
        alloc->freeFrom(t, off, nullptr);
        ops += 2;
    }
    alloc->threadDetach(t);
    state.counters["vns_per_op"] =
        double(VClock::now() - v0) / double(ops);
}

void BM_Small(benchmark::State &s)
{
    allocFreePairs(s, AllocKind(s.range(0)), 64);
}

void BM_Large(benchmark::State &s)
{
    allocFreePairs(s, AllocKind(s.range(0)), 128 * 1024);
}

/** Busy-waits about `ns` of wall time. */
void
spinFor(std::chrono::nanoseconds ns)
{
    auto until = std::chrono::steady_clock::now() + ns;
    while (std::chrono::steady_clock::now() < until) {
    }
}

VLock handoff_lock;

/** Every thread holds one shared VLock for about 1 µs (booking 1 µs of
 *  virtual hold, as a real section does) and works about 1 µs outside
 *  it, so with two threads nearly every acquisition waits for the
 *  other's release. Wall ns per acquisition: the time per iteration. */
void
BM_VLockHandoff(benchmark::State &state)
{
    using namespace std::chrono_literals;
    if (state.thread_index() == 0)
        handoff_lock.reset(); // the other threads wait at the loop start
    VClock::reset();
    for (auto _ : state) {
        {
            VLockGuard g(handoff_lock);
            VClock::advance(1000, TimeKind::Other);
            spinFor(1us);
        }
        spinFor(1us);
    }
}

/** The device every BM_SharedMediaFlush thread flushes, built once. */
PmDevice &
sharedFlushDevice()
{
    static PmDevice dev([] {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 30;
        return cfg;
    }());
    return dev;
}

/** Every thread flushes random lines (xorshift, as micro_latency_model's
 *  BM_RandomFlush does) of one shared device, so nearly every flush
 *  misses the XPBuffer and books the model's one media server. Wall ns
 *  per flush: the time per iteration. */
void
BM_SharedMediaFlush(benchmark::State &state)
{
    PmDevice &dev = sharedFlushDevice();
    if (state.thread_index() == 0)
        dev.model().reset(); // the other threads wait at the loop start
    VClock::reset();
    const uint64_t lines = dev.size() / kCacheLine;
    uint64_t x = 88172645463325252ULL + uint64_t(state.thread_index());
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        dev.flushLine(dev.base() + (x % lines) * kCacheLine,
                      TimeKind::FlushMeta);
    }
}

} // namespace

BENCHMARK(BM_VLockHandoff)->Threads(1)->Threads(2)->UseRealTime();
BENCHMARK(BM_SharedMediaFlush)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

BENCHMARK(BM_Small)
    ->Arg(int(AllocKind::Pmdk))
    ->Arg(int(AllocKind::NvmMalloc))
    ->Arg(int(AllocKind::PAllocator))
    ->Arg(int(AllocKind::Makalu))
    ->Arg(int(AllocKind::Ralloc))
    ->Arg(int(AllocKind::NvAllocLog))
    ->Arg(int(AllocKind::NvAllocGc));

BENCHMARK(BM_Large)
    ->Arg(int(AllocKind::Pmdk))
    ->Arg(int(AllocKind::NvmMalloc))
    ->Arg(int(AllocKind::PAllocator))
    ->Arg(int(AllocKind::Makalu))
    ->Arg(int(AllocKind::NvAllocLog));

BENCHMARK(BM_Crc32c)->ArgsProduct({{0, 1}, {16, 40, 205, 16384}});

BENCHMARK_MAIN();
