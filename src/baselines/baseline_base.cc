#include "baselines/baseline_base.h"

#include "common/logging.h"
#include "pm/vclock.h"

namespace nvalloc {

void
BaselineAllocator::publish(uint64_t *where, uint64_t value)
{
    if (!where)
        return;
    *where = value;
    if (dev_.contains(where)) {
        dev_.persist(where, sizeof(uint64_t), TimeKind::FlushData);
        dev_.fence();
    }
}

void
BaselineAllocator::largeJournal(SlabEngine::Tls *tls, uint64_t off,
                                size_t size, bool is_free)
{
    SlabEngine::Policy tmp = spec_.small;
    tmp.log_head_flush = spec_.large_journal_head;
    tmp.log_entry_flushes = spec_.large_journal_entries;
    engine_->journalWith(tls, tmp, off, size, is_free);
}

uint64_t
BaselineAllocator::allocTo(AllocThread *t, size_t size, uint64_t *where)
{
    auto *tls = static_cast<SlabEngine::Tls *>(t);
    uint64_t off;
    if (size <= kSmallMax) {
        off = engine_->alloc(tls, size);
    } else {
        largeJournal(tls, 0, size, false);
        off = extents_->allocExtent(size);
        VClock::advance(spec_.small.cpu_ns, TimeKind::Other);
    }
    publish(where, off);
    return off;
}

void
BaselineAllocator::freeFrom(AllocThread *t, uint64_t off, uint64_t *where)
{
    auto *tls = static_cast<SlabEngine::Tls *>(t);
    publish(where, 0);
    if (engine_->free(tls, off))
        return;
    largeJournal(tls, off, 0, true);
    extents_->freeExtent(off);
    VClock::advance(spec_.small.cpu_ns, TimeKind::Other);
}

uint64_t
BaselineAllocator::recover()
{
    uint64_t t0 = VClock::now();
    uint64_t blocks = engine_->liveBlocks();
    uint64_t slabs = engine_->slabCount();
    uint64_t extents = extents_->liveExtents();

    switch (spec_.recovery) {
      case BaselineSpec::Recovery::WalScan:
        // nvm_malloc defers metadata reconstruction: only the journals
        // are read at restart.
        for (unsigned i = 0; i < 64; ++i)
            dev_.chargeRead(true);
        break;
      case BaselineSpec::Recovery::MetaWalk:
        // PMDK walks its lane logs and every run/chunk header.
        for (uint64_t i = 0; i < slabs + extents; ++i)
            dev_.chargeRead(true);
        for (uint64_t i = 0; i < blocks / 16; ++i)
            dev_.chargeRead(true); // bitmap words
        break;
      case BaselineSpec::Recovery::PartialGc:
        // Ralloc scans only the blocks reachable from its descriptors
        // that were dirty at the crash — about half in the paper's
        // linked-list experiment.
        for (uint64_t i = 0; i < blocks / 2; ++i)
            dev_.chargeRead(false);
        break;
      case BaselineSpec::Recovery::FullGc:
        // Makalu's conservative GC dereferences every live object.
        for (uint64_t i = 0; i < blocks; ++i)
            dev_.chargeRead(false);
        break;
    }
    return VClock::now() - t0;
}

} // namespace nvalloc
