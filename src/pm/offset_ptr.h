/**
 * @file
 * Position-independent pointers for persistent structures.
 *
 * A heap file may be mapped at a different virtual address after every
 * restart, so persistent structures must not store raw pointers (paper
 * §4.1, same technique as Ralloc and NV-Heaps). OffsetPtr stores the
 * *self-relative* distance to the target: dereferencing adds the
 * distance to the pointer's own address, which is correct wherever the
 * containing region is mapped, as long as pointer and target live in
 * the same mapping.
 *
 * The value 0 (pointing at itself) encodes null.
 */

#ifndef NVALLOC_PM_OFFSET_PTR_H
#define NVALLOC_PM_OFFSET_PTR_H

#include <cstdint>

namespace nvalloc {

template <typename T>
class OffsetPtr
{
  public:
    OffsetPtr() = default;

    OffsetPtr(T *p) { set(p); }

    OffsetPtr &
    operator=(T *p)
    {
        set(p);
        return *this;
    }

    // Copying must rebase the offset relative to the new location.
    OffsetPtr(const OffsetPtr &other) { set(other.get()); }

    OffsetPtr &
    operator=(const OffsetPtr &other)
    {
        set(other.get());
        return *this;
    }

    // The distance is computed through uintptr_t: raw pointer
    // subtraction between distinct objects is undefined behaviour and
    // optimizers exploit it; integer arithmetic is merely
    // implementation-defined and round-trips on every flat-memory
    // platform.
    T *
    get() const
    {
        if (off_ == 0)
            return nullptr;
        return reinterpret_cast<T *>(
            reinterpret_cast<uintptr_t>(this) + uintptr_t(off_));
    }

    void
    set(T *p)
    {
        if (!p) {
            off_ = 0;
        } else {
            off_ = int64_t(reinterpret_cast<uintptr_t>(p) -
                           reinterpret_cast<uintptr_t>(this));
        }
    }

    T *operator->() const { return get(); }
    T &operator*() const { return *get(); }
    explicit operator bool() const { return off_ != 0; }
    bool operator==(const OffsetPtr &o) const { return get() == o.get(); }
    bool operator==(const T *p) const { return get() == p; }

  private:
    int64_t off_ = 0;
};

} // namespace nvalloc

#endif // NVALLOC_PM_OFFSET_PTR_H
