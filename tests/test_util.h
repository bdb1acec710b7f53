/**
 * @file
 * Shared helpers for NVAlloc tests.
 */

#ifndef NVALLOC_TESTS_TEST_UTIL_H
#define NVALLOC_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "nvalloc/nvalloc.h"

namespace nvalloc {

/**
 * `cfg` with the CI matrix's environment applied, so one test binary
 * serves every leg: NVALLOC_MAINTENANCE=thread picks the thread mode
 * (a live worker races the workload, and recovery runs with the
 * service restarted; off, and manual, the retired mode's name, keep
 * the default), and NVALLOC_HARDENING=full turns redzone canaries and
 * the delayed-reuse quarantine on. Guard sampling stays off: guards
 * are large extents, which would skew small-block leak oracles.
 */
inline NvAllocConfig
envConfig(NvAllocConfig cfg = {})
{
    const char *maint = std::getenv("NVALLOC_MAINTENANCE");
    if (maint && std::strcmp(maint, "thread") == 0)
        cfg.maintenance_mode = MaintenanceMode::Thread;
    const char *hard = std::getenv("NVALLOC_HARDENING");
    if (hard && std::strcmp(hard, "full") == 0) {
        cfg.redzone_canaries = true;
        cfg.quarantine_depth = 16;
    }
    return cfg;
}

/** Read one ctl leaf, failing the test if the name is unknown. */
inline uint64_t
readCtl(NvAlloc &alloc, const char *name)
{
    uint64_t v = 0;
    EXPECT_EQ(alloc.ctlRead(name, &v), NvStatus::Ok) << name;
    return v;
}

/** Count live blocks across all slabs, including blocks_before of
 *  morphing slabs (which live in index tables, not bitmaps). */
inline uint64_t
liveSmallBlocks(NvAlloc &alloc)
{
    uint64_t live = 0;
    for (unsigned i = 0; i < alloc.numArenas(); ++i) {
        alloc.arena(i).forEachSlab([&](VSlab *slab) {
            live += slab->liveBlocks() + slab->cntSlab();
        });
    }
    return live;
}

/** True if the block at `off` is allocated — under either the current
 *  or, for morphing slabs, the old geometry. */
inline bool
blockIsLive(NvAlloc &alloc, uint64_t off)
{
    VSlab *slab = static_cast<VSlab *>(alloc.slabRadix().get(off));
    if (!slab)
        return false;
    unsigned old_idx = 0;
    if (slab->isOldBlock(off, old_idx))
        return true;
    unsigned idx = slab->blockIndexOf(off);
    return idx < slab->capacity() && slab->isAllocated(idx);
}

} // namespace nvalloc

#endif // NVALLOC_TESTS_TEST_UTIL_H
