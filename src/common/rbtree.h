/**
 * @file
 * Intrusive red–black tree.
 *
 * The persistent bookkeeping log keeps its volatile chunk descriptors
 * (vchunks) in a red–black tree ordered by chunk id (paper §5.3,
 * Fig. 8), and the large allocator orders free extents by size for
 * best-fit. Both need an ordered map whose nodes live inside objects
 * the allocator already owns — an allocator cannot allocate from
 * itself — hence an intrusive tree rather than std::map.
 *
 * Classic CLRS insert/erase fixup with a sentinel-free representation
 * (null children, explicit root). Duplicate keys are allowed and are
 * ordered arbitrarily among themselves; lowerBound() returns the first
 * node with key >= the probe.
 */

#ifndef NVALLOC_COMMON_RBTREE_H
#define NVALLOC_COMMON_RBTREE_H

#include <cstdint>

#include "common/logging.h"

namespace nvalloc {

/** Embed one of these per tree an object can live in. */
struct RbNode
{
    RbNode *parent = nullptr;
    RbNode *left = nullptr;
    RbNode *right = nullptr;
    bool red = false;
    uint64_t key = 0;

    bool linked() const { return parent != nullptr || red; }
};

/**
 * Intrusive red–black tree over objects of type T with an RbNode member
 * at byte offset `NodeOffset`. Keys are uint64_t, stored in the node.
 */
template <typename T, size_t NodeOffset>
class RbTree
{
  public:
    static RbNode *
    nodeOf(T *obj)
    {
        return reinterpret_cast<RbNode *>(
            reinterpret_cast<char *>(obj) + NodeOffset);
    }

    static T *
    objOf(RbNode *n)
    {
        return n ? reinterpret_cast<T *>(
                       reinterpret_cast<char *>(n) - NodeOffset)
                 : nullptr;
    }

    bool empty() const { return root_ == nullptr; }
    size_t size() const { return size_; }

    void
    insert(T *obj, uint64_t key)
    {
        RbNode *z = nodeOf(obj);
        z->key = key;
        z->left = z->right = nullptr;
        z->red = true;

        RbNode *y = nullptr;
        RbNode *x = root_;
        while (x) {
            y = x;
            x = (z->key < x->key) ? x->left : x->right;
        }
        z->parent = y;
        if (!y)
            root_ = z;
        else if (z->key < y->key)
            y->left = z;
        else
            y->right = z;
        insertFixup(z);
        ++size_;
    }

    void
    erase(T *obj)
    {
        RbNode *z = nodeOf(obj);
        RbNode *y = z;
        RbNode *x = nullptr;
        RbNode *x_parent = nullptr;
        bool y_was_red = y->red;

        if (!z->left) {
            x = z->right;
            x_parent = z->parent;
            transplant(z, z->right);
        } else if (!z->right) {
            x = z->left;
            x_parent = z->parent;
            transplant(z, z->left);
        } else {
            y = minimum(z->right);
            y_was_red = y->red;
            x = y->right;
            if (y->parent == z) {
                x_parent = y;
            } else {
                x_parent = y->parent;
                transplant(y, y->right);
                y->right = z->right;
                y->right->parent = y;
            }
            transplant(z, y);
            y->left = z->left;
            y->left->parent = y;
            y->red = z->red;
        }
        if (!y_was_red)
            eraseFixup(x, x_parent);
        z->parent = z->left = z->right = nullptr;
        z->red = false;
        --size_;
    }

    /** Any node with exactly this key, or nullptr. */
    T *
    find(uint64_t key) const
    {
        RbNode *x = root_;
        while (x) {
            if (key == x->key)
                return objOf(x);
            x = (key < x->key) ? x->left : x->right;
        }
        return nullptr;
    }

    /** First node with key >= probe, or nullptr. */
    T *
    lowerBound(uint64_t key) const
    {
        RbNode *x = root_;
        RbNode *best = nullptr;
        while (x) {
            if (x->key >= key) {
                best = x;
                x = x->left;
            } else {
                x = x->right;
            }
        }
        return objOf(best);
    }

    /** Last node with key <= probe, or nullptr. */
    T *
    upperBoundBelow(uint64_t key) const
    {
        RbNode *x = root_;
        RbNode *best = nullptr;
        while (x) {
            if (x->key <= key) {
                best = x;
                x = x->right;
            } else {
                x = x->left;
            }
        }
        return objOf(best);
    }

    T *
    first() const
    {
        return root_ ? objOf(minimum(root_)) : nullptr;
    }

    /** Node with the largest key, or nullptr when empty. */
    T *
    last() const
    {
        RbNode *x = root_;
        while (x && x->right)
            x = x->right;
        return objOf(x);
    }

    /** In-order successor, or nullptr at the end. */
    T *
    next(T *obj) const
    {
        RbNode *x = nodeOf(obj);
        if (x->right)
            return objOf(minimum(x->right));
        RbNode *y = x->parent;
        while (y && x == y->right) {
            x = y;
            y = y->parent;
        }
        return objOf(y);
    }

    /** Validate red–black invariants; test hook. Returns black height. */
    int
    checkInvariants() const
    {
        NV_ASSERT(!root_ || !root_->red);
        return blackHeight(root_);
    }

  private:
    RbNode *root_ = nullptr;
    size_t size_ = 0;

    static RbNode *
    minimum(RbNode *x)
    {
        while (x->left)
            x = x->left;
        return x;
    }

    static bool isRed(RbNode *n) { return n && n->red; }

    void
    rotateLeft(RbNode *x)
    {
        RbNode *y = x->right;
        x->right = y->left;
        if (y->left)
            y->left->parent = x;
        y->parent = x->parent;
        if (!x->parent)
            root_ = y;
        else if (x == x->parent->left)
            x->parent->left = y;
        else
            x->parent->right = y;
        y->left = x;
        x->parent = y;
    }

    void
    rotateRight(RbNode *x)
    {
        RbNode *y = x->left;
        x->left = y->right;
        if (y->right)
            y->right->parent = x;
        y->parent = x->parent;
        if (!x->parent)
            root_ = y;
        else if (x == x->parent->right)
            x->parent->right = y;
        else
            x->parent->left = y;
        y->right = x;
        x->parent = y;
    }

    void
    transplant(RbNode *u, RbNode *v)
    {
        if (!u->parent)
            root_ = v;
        else if (u == u->parent->left)
            u->parent->left = v;
        else
            u->parent->right = v;
        if (v)
            v->parent = u->parent;
    }

    void
    insertFixup(RbNode *z)
    {
        while (isRed(z->parent)) {
            RbNode *gp = z->parent->parent;
            if (z->parent == gp->left) {
                RbNode *uncle = gp->right;
                if (isRed(uncle)) {
                    z->parent->red = false;
                    uncle->red = false;
                    gp->red = true;
                    z = gp;
                } else {
                    if (z == z->parent->right) {
                        z = z->parent;
                        rotateLeft(z);
                    }
                    z->parent->red = false;
                    gp->red = true;
                    rotateRight(gp);
                }
            } else {
                RbNode *uncle = gp->left;
                if (isRed(uncle)) {
                    z->parent->red = false;
                    uncle->red = false;
                    gp->red = true;
                    z = gp;
                } else {
                    if (z == z->parent->left) {
                        z = z->parent;
                        rotateRight(z);
                    }
                    z->parent->red = false;
                    gp->red = true;
                    rotateLeft(gp);
                }
            }
        }
        root_->red = false;
    }

    void
    eraseFixup(RbNode *x, RbNode *x_parent)
    {
        while (x != root_ && !isRed(x)) {
            if (x == x_parent->left) {
                RbNode *w = x_parent->right;
                if (isRed(w)) {
                    w->red = false;
                    x_parent->red = true;
                    rotateLeft(x_parent);
                    w = x_parent->right;
                }
                if (!isRed(w->left) && !isRed(w->right)) {
                    w->red = true;
                    x = x_parent;
                    x_parent = x->parent;
                } else {
                    if (!isRed(w->right)) {
                        if (w->left)
                            w->left->red = false;
                        w->red = true;
                        rotateRight(w);
                        w = x_parent->right;
                    }
                    w->red = x_parent->red;
                    x_parent->red = false;
                    if (w->right)
                        w->right->red = false;
                    rotateLeft(x_parent);
                    x = root_;
                    x_parent = nullptr;
                }
            } else {
                RbNode *w = x_parent->left;
                if (isRed(w)) {
                    w->red = false;
                    x_parent->red = true;
                    rotateRight(x_parent);
                    w = x_parent->left;
                }
                if (!isRed(w->right) && !isRed(w->left)) {
                    w->red = true;
                    x = x_parent;
                    x_parent = x->parent;
                } else {
                    if (!isRed(w->left)) {
                        if (w->right)
                            w->right->red = false;
                        w->red = true;
                        rotateLeft(w);
                        w = x_parent->left;
                    }
                    w->red = x_parent->red;
                    x_parent->red = false;
                    if (w->left)
                        w->left->red = false;
                    rotateRight(x_parent);
                    x = root_;
                    x_parent = nullptr;
                }
            }
        }
        if (x)
            x->red = false;
    }

    int
    blackHeight(RbNode *n) const
    {
        if (!n)
            return 1;
        NV_ASSERT(!(isRed(n) && (isRed(n->left) || isRed(n->right))));
        if (n->left)
            NV_ASSERT(n->left->key <= n->key && n->left->parent == n);
        if (n->right)
            NV_ASSERT(n->right->key >= n->key && n->right->parent == n);
        int lh = blackHeight(n->left);
        int rh = blackHeight(n->right);
        NV_ASSERT(lh == rh);
        return lh + (n->red ? 0 : 1);
    }
};

#define NVALLOC_RB_TREE(T, member) ::nvalloc::RbTree<T, offsetof(T, member)>

} // namespace nvalloc

#endif // NVALLOC_COMMON_RBTREE_H
