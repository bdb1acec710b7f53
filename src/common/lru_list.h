/**
 * @file
 * Intrusive doubly-linked LRU list.
 *
 * Slab morphing scans slabs from least- to most-recently used to pick a
 * transformation candidate (paper §5.2); the VEH lists of the large
 * allocator reuse the same intrusive links. Intrusive linkage avoids a
 * node allocation per element — an allocator cannot call itself to
 * manage its own bookkeeping.
 */

#ifndef NVALLOC_COMMON_LRU_LIST_H
#define NVALLOC_COMMON_LRU_LIST_H

#include <cstddef>

#include "common/logging.h"

namespace nvalloc {

/** Embed one of these per list an object can live on. */
struct LruLink
{
    LruLink *prev = nullptr;
    LruLink *next = nullptr;

    bool linked() const { return prev != nullptr; }
};

/**
 * Intrusive list of T, with the link located at byte offset
 * `LinkOffset` inside T. Head = least recently used; touch() moves an
 * element to the tail (most recently used).
 */
template <typename T, size_t LinkOffset>
class LruList
{
  public:
    LruList()
    {
        head_.prev = &head_;
        head_.next = &head_;
    }

    static LruLink *
    linkOf(T *obj)
    {
        return reinterpret_cast<LruLink *>(
            reinterpret_cast<char *>(obj) + LinkOffset);
    }

    static T *
    objOf(LruLink *link)
    {
        return reinterpret_cast<T *>(
            reinterpret_cast<char *>(link) - LinkOffset);
    }

    bool empty() const { return head_.next == &head_; }
    size_t size() const { return size_; }

    /** Insert at the MRU end. */
    void
    pushBack(T *obj)
    {
        LruLink *l = linkOf(obj);
        NV_ASSERT(!l->linked());
        l->prev = head_.prev;
        l->next = &head_;
        head_.prev->next = l;
        head_.prev = l;
        ++size_;
    }

    void
    remove(T *obj)
    {
        LruLink *l = linkOf(obj);
        NV_ASSERT(l->linked());
        l->prev->next = l->next;
        l->next->prev = l->prev;
        l->prev = l->next = nullptr;
        --size_;
    }

    /** Mark as most recently used. */
    void
    touch(T *obj)
    {
        remove(obj);
        pushBack(obj);
    }

    T *
    front() const
    {
        return empty() ? nullptr : objOf(head_.next);
    }

    T *
    popFront()
    {
        if (empty())
            return nullptr;
        T *obj = objOf(head_.next);
        remove(obj);
        return obj;
    }

    /** Next element after `obj` in LRU→MRU order, or nullptr at end. */
    T *
    next(T *obj) const
    {
        LruLink *l = linkOf(obj)->next;
        return l == &head_ ? nullptr : objOf(l);
    }

  private:
    LruLink head_; // sentinel; prev = MRU tail, next = LRU head
    size_t size_ = 0;
};

/** Convenience macro: list of T linked through member `member`. */
#define NVALLOC_LRU_LIST(T, member) ::nvalloc::LruList<T, offsetof(T, member)>

} // namespace nvalloc

#endif // NVALLOC_COMMON_LRU_LIST_H
