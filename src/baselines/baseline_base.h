/**
 * @file
 * Shared plumbing for the five baseline allocator models.
 *
 * A BaselineSpec captures what distinguishes each original allocator:
 * the small-path Policy (see slab_engine.h), how many journal flushes
 * wrap a large allocation, and the recovery discipline. Each concrete
 * baseline (pmdk_alloc.h, ...) is a spec plus the rationale for it.
 */

#ifndef NVALLOC_BASELINES_BASELINE_BASE_H
#define NVALLOC_BASELINES_BASELINE_BASE_H

#include <memory>

#include "baselines/allocator_iface.h"
#include "baselines/extent_heap.h"
#include "baselines/slab_engine.h"

namespace nvalloc {

struct BaselineSpec
{
    const char *name = "baseline";
    bool strong = true;
    bool supports_large = true;

    SlabEngine::Policy small;

    /** Journal flushes around a large allocation/free. */
    unsigned large_journal_entries = 1;
    bool large_journal_head = false;

    /** Recovery model (Fig. 18): per-live-block PM read pattern. */
    enum class Recovery
    {
        WalScan,    //!< scan journals only (fast; nvm_malloc)
        MetaWalk,   //!< walk slab/extent metadata (PMDK)
        PartialGc,  //!< read a fraction of live blocks (Ralloc)
        FullGc,     //!< conservative GC reads every block (Makalu)
    } recovery = Recovery::MetaWalk;
};

class BaselineAllocator : public PmAllocator
{
  public:
    BaselineAllocator(PmDevice &dev, BaselineSpec spec)
        : dev_(dev), spec_(spec),
          extents_(std::make_unique<ExtentHeap>(&dev)),
          engine_(std::make_unique<SlabEngine>(&dev, extents_.get(),
                                               spec.small))
    {
    }

    const char *name() const override { return spec_.name; }
    bool stronglyConsistent() const override { return spec_.strong; }
    bool supportsLarge() const override { return spec_.supports_large; }
    PmDevice &device() override { return dev_; }

    AllocThread *threadAttach() override { return engine_->attach(); }

    void
    threadDetach(AllocThread *t) override
    {
        engine_->detach(static_cast<SlabEngine::Tls *>(t));
    }

    uint64_t allocTo(AllocThread *t, size_t size,
                     uint64_t *where) override;
    void freeFrom(AllocThread *t, uint64_t off, uint64_t *where) override;

    uint64_t recover() override;

    SlabEngine &engine() { return *engine_; }
    ExtentHeap &extents() { return *extents_; }

  protected:
    PmDevice &dev_;
    BaselineSpec spec_;
    std::unique_ptr<ExtentHeap> extents_;
    std::unique_ptr<SlabEngine> engine_;

    void publish(uint64_t *where, uint64_t value);
    void largeJournal(SlabEngine::Tls *tls, uint64_t off, size_t size,
                      bool is_free);
};

} // namespace nvalloc

#endif // NVALLOC_BASELINES_BASELINE_BASE_H
