/**
 * @file
 * The heap config and churn workload nvalloc_stat and nvalloc_fsck
 * share, so both tools report on the same history for the same flags.
 */

#ifndef NVALLOC_TOOLS_CHURN_H
#define NVALLOC_TOOLS_CHURN_H

#include <functional>
#include <vector>

#include "nvalloc/nvalloc.h"

namespace nvalloc {

/** LOG, or GC with `gc`; in-place descriptors with `base`. */
inline NvAllocConfig
toolConfig(bool gc, bool base)
{
    NvAllocConfig cfg;
    cfg.consistency = gc ? Consistency::Gc : Consistency::Log;
    cfg.log_bookkeeping = !base;
    return cfg;
}

/** The churn's live offsets and fixed-seed xorshift. */
struct Churn
{
    std::vector<uint64_t> live;
    uint64_t rng = 0x9e3779b97f4a7c15ULL;

    uint64_t
    rnd()
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    }
};

/** `ops` steps that each allocate one of seven sizes (16 B to 80 KB)
 *  or, one time in three, free a random live object; then every other
 *  live object is freed. `extra(i, churn)`, when set, runs first at
 *  step i and returns true when it used the step itself. */
inline void
runChurn(NvAlloc &alloc, ThreadCtx &ctx, unsigned ops,
         const std::function<bool(unsigned, Churn &)> &extra = {})
{
    static const size_t sizes[] = {16, 48, 256, 1024, 4096, 24 * 1024,
                                   80 * 1024};
    Churn c;
    for (unsigned i = 0; i < ops; ++i) {
        if (extra && extra(i, c))
            continue;
        if (c.live.empty() || c.rnd() % 3 != 0) {
            size_t size = sizes[c.rnd() % (sizeof(sizes) / sizeof(*sizes))];
            uint64_t off = alloc.allocOffset(ctx, size, nullptr);
            if (off != 0)
                c.live.push_back(off);
        } else {
            size_t pick = c.rnd() % c.live.size();
            alloc.freeOffset(ctx, c.live[pick], nullptr);
            c.live[pick] = c.live.back();
            c.live.pop_back();
        }
    }
    for (size_t i = 0; i + 1 < c.live.size(); i += 2)
        alloc.freeOffset(ctx, c.live[i], nullptr);
}

} // namespace nvalloc

#endif // NVALLOC_TOOLS_CHURN_H
