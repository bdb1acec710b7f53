/**
 * @file
 * PmAllocatorRegistry: the name-keyed construction path every bench,
 * tool, and test uses (see allocator_iface.h). Builtins are registered
 * in the singleton's constructor so a static-library link cannot drop
 * them the way it drops file-scope registrar objects.
 */

#include "baselines/allocator_iface.h"

#include "baselines/makalu_alloc.h"
#include "baselines/nvalloc_adapter.h"
#include "baselines/nvm_malloc_alloc.h"
#include "baselines/pallocator.h"
#include "baselines/pmdk_alloc.h"
#include "baselines/ralloc_alloc.h"

namespace nvalloc {

namespace {

NvAllocConfig
nvallocConfigFor(Consistency consistency, const PmDevice &dev,
                 const MakeOptions &opts)
{
    NvAllocConfig cfg;
    cfg.consistency = consistency;
    if (dev.eadr()) {
        // pmem_has_auto_flush() detected eADR: interleaving is
        // disabled because it only spreads cache pressure (§6.7).
        cfg.interleaved_bitmap = false;
        cfg.interleaved_tcache = false;
        cfg.interleaved_wal = false;
        cfg.interleaved_log = false;
    }
    if (opts.tweak_nvalloc)
        opts.tweak_nvalloc(cfg);
    return cfg;
}

} // namespace

PmAllocatorRegistry::PmAllocatorRegistry()
{
    registerFactory("pmdk", [](PmDevice &dev, const MakeOptions &) {
        return std::make_unique<PmdkAlloc>(dev);
    });
    registerFactory("nvm_malloc", [](PmDevice &dev, const MakeOptions &) {
        return std::make_unique<NvmMallocAlloc>(dev);
    });
    registerFactory("pallocator", [](PmDevice &dev, const MakeOptions &) {
        return std::make_unique<PalAllocator>(dev);
    });
    registerFactory("makalu", [](PmDevice &dev, const MakeOptions &) {
        return std::make_unique<MakaluAlloc>(dev);
    });
    registerFactory("ralloc", [](PmDevice &dev, const MakeOptions &) {
        return std::make_unique<RallocAlloc>(dev);
    });
    registerFactory("nvalloc", [](PmDevice &dev, const MakeOptions &o) {
        return std::make_unique<NvAllocAdapter>(
            dev, nvallocConfigFor(Consistency::Log, dev, o));
    });
    registerFactory("nvalloc-gc", [](PmDevice &dev, const MakeOptions &o) {
        return std::make_unique<NvAllocAdapter>(
            dev, nvallocConfigFor(Consistency::Gc, dev, o));
    });
}

PmAllocatorRegistry &
PmAllocatorRegistry::instance()
{
    static PmAllocatorRegistry reg;
    return reg;
}

void
PmAllocatorRegistry::registerFactory(const std::string &name, Factory fn)
{
    factories_[name] = std::move(fn);
}

std::unique_ptr<PmAllocator>
PmAllocatorRegistry::make(const std::string &name, PmDevice &dev,
                          const MakeOptions &opts) const
{
    auto it = factories_.find(name);
    if (it == factories_.end())
        return nullptr;
    return it->second(dev, opts);
}

bool
PmAllocatorRegistry::known(const std::string &name) const
{
    return factories_.count(name) != 0;
}

std::vector<std::string>
PmAllocatorRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, fn] : factories_)
        out.push_back(name);
    return out;
}

} // namespace nvalloc
