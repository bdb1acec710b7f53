/**
 * @file
 * Common interface over all allocators under evaluation.
 *
 * The benchmark harness drives every allocator — NVAlloc's two
 * variants and the five baseline models — through this interface, so
 * every figure compares identical traces on the identical emulated
 * device.
 *
 * The baselines are behavioural models, not line-by-line ports: each
 * reimplements the metadata layout and flush/locking discipline that
 * the paper identifies as the performance-relevant property of the
 * original (PMDK's transactional lane logs, nvm_malloc's sequential
 * slab bitmaps + WAL, PAllocator's per-thread segregated fit with
 * micro-logs, Makalu's and Ralloc's embedded free lists), on top of
 * the same PmDevice latency model.
 */

#ifndef NVALLOC_BASELINES_ALLOCATOR_IFACE_H
#define NVALLOC_BASELINES_ALLOCATOR_IFACE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nvalloc/config.h"
#include "pm/pm_device.h"

namespace nvalloc {

/** Opaque per-thread handle. */
struct AllocThread
{
    virtual ~AllocThread() = default;
};

class PmAllocator
{
  public:
    virtual ~PmAllocator() = default;

    virtual const char *name() const = 0;

    /** True for WAL/transaction-based allocators ("strongly
     *  consistent" in the paper's grouping), false for GC-based. */
    virtual bool stronglyConsistent() const = 0;

    /** Whether large (>16 KB) allocations work; Ralloc's open-source
     *  implementation is broken there and the paper excludes it. */
    virtual bool supportsLarge() const { return true; }

    /**
     * Attach the calling thread. Returns nullptr when the allocator
     * cannot take another thread — its per-thread slots are all in
     * use, or the heap refused to open — and never aborts. Callers
     * must check the result; after a nullptr the thread may retry
     * once some other thread detaches. Passing the nullptr on to
     * allocTo/freeFrom/threadDetach is undefined.
     */
    virtual AllocThread *threadAttach() = 0;
    virtual void threadDetach(AllocThread *t) = 0;

    /**
     * Allocate `size` bytes, atomically publishing the offset into
     * the persistent word `where` (may be nullptr). Returns the
     * block's device offset, or 0 when the heap is exhausted — after
     * any internal reclamation slow path has already run — or `size`
     * is unserviceable. A 0 return leaves the heap fully usable for
     * frees and smaller allocations; callers skip the operation (and
     * report it, e.g. via noteFailedAlloc in the harness).
     */
    virtual uint64_t allocTo(AllocThread *t, size_t size,
                             uint64_t *where) = 0;

    /** Free the block at `off`, clearing `where` if given. */
    virtual void freeFrom(AllocThread *t, uint64_t off,
                          uint64_t *where) = 0;

    virtual PmDevice &device() = 0;

    /** Recover after restart/crash; returns modeled virtual ns. */
    virtual uint64_t recover() { return 0; }

    /**
     * Simulate a power cut: roll the device back to its persisted
     * image (honouring any installed fault-injection policy) and
     * neuter in-DRAM allocator state. Call recover() afterwards.
     * Requires the device's shadow mode. The same hook works for
     * every allocator, so crash sweeps can drive baselines too.
     */
    virtual void simulateCrash() { device().crash(); }
};

/** Construction knobs shared by every allocator factory. */
struct MakeOptions
{
    /** Overrides applied to NVAlloc variants only. */
    std::function<void(NvAllocConfig &)> tweak_nvalloc;
};

/**
 * Name-keyed allocator factory: the single construction path for every
 * bench, tool, and test. Benches that used to switch over AllocKind go
 * through make() so a new allocator (or variant) only needs one
 * registration here and immediately appears everywhere, including in
 * run_benches.sh's NVALLOC_BENCH_ALLOCATORS filter.
 *
 * Built-in names: "pmdk", "nvm_malloc", "pallocator", "makalu",
 * "ralloc", "nvalloc" (LOG variant), "nvalloc-gc".
 *
 * The registry is a construct-on-first-use singleton with the builtins
 * registered in its constructor — not via static registrar objects,
 * which a static-library link is free to drop.
 */
class PmAllocatorRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<PmAllocator>(
        PmDevice &, const MakeOptions &)>;

    static PmAllocatorRegistry &instance();

    /** Register (or replace) a factory under `name`. */
    void registerFactory(const std::string &name, Factory fn);

    /**
     * Construct allocator `name` on `dev`; the device is left as the
     * caller built it (eADR is a PmDeviceConfig property). Returns
     * nullptr for an unknown name.
     */
    std::unique_ptr<PmAllocator> make(const std::string &name,
                                      PmDevice &dev,
                                      const MakeOptions &opts = {}) const;

    bool known(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    PmAllocatorRegistry(); //!< registers the builtins

    std::map<std::string, Factory> factories_;
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_ALLOCATOR_IFACE_H
