/**
 * @file
 * Cycle-bucketed priority queue for timed events (DESIGN.md section 16).
 *
 * Pops entries in exact (delivered, seq) order, the order a
 * std::priority_queue keyed on the same pair would, but an entry due
 * within kBuckets cycles of the queue's base costs a list append and
 * a list walk instead of two O(log n) heap operations. Entries beyond
 * that horizon, or behind the base (pushed after their cycle was
 * already popped), go to a heap — the far case — and are merged back
 * by (delivered, seq) when they come due.
 *
 * Bucketed entries live in one node pool threaded into per-cycle FIFO
 * lists, with popped nodes recycled through a free list: memory
 * follows the peak number of queued entries, not the sum of every
 * bucket's peak, and a warm queue allocates nothing.
 *
 * tests/test_cycle_queue.cc checks the order against a heap reference.
 */

#ifndef CYCLOPS_COMMON_CYCLE_QUEUE_H
#define CYCLOPS_COMMON_CYCLE_QUEUE_H

#include <queue>
#include <utility>
#include <vector>

#include "common/types.h"

namespace cyclops
{

/**
 * @tparam T an entry with `Cycle delivered` and `u64 seq` members.
 *         Pushes must come in increasing seq order (an injection
 *         sequence number), so each bucket's list stays sorted by seq.
 * @tparam kBuckets ring size in cycles, a power of two.
 */
template <class T, u32 kBuckets>
class CycleBucketQueue
{
    static_assert(kBuckets > 0 && (kBuckets & (kBuckets - 1)) == 0,
                  "bucket count must be a power of two");

  public:
    CycleBucketQueue() : ring_(kBuckets) {}

    void
    push(const T &e)
    {
        if (T *slot = place(e.delivered)) [[likely]]
            *slot = e;
        else
            pushFar(e);
    }

    /** push(T{delivered, args...}), built in its queue slot. */
    template <class... Args>
    void
    emplace(Cycle delivered, Args &&...args)
    {
        if (T *slot = place(delivered)) [[likely]]
            *slot = T{delivered, std::forward<Args>(args)...};
        else
            pushFar(T{delivered, std::forward<Args>(args)...});
    }

    /**
     * Pass every entry with delivered <= @p upTo to @p apply in
     * (delivered, seq) order and remove it. @p apply must not push.
     * upTo == kCycleNever empties the queue.
     */
    template <class F>
    void
    popUpTo(Cycle upTo, F &&apply)
    {
        if (upTo >= base_) {
            const Cycle span = upTo - base_;
            const Cycle n = span >= kBuckets ? kBuckets : span + 1;
            // apply() may write anywhere (it stores guest bytes), so
            // the list state lives in locals until the walk ends. The
            // heap only shrinks here (apply() must not push).
            Node *const pool = pool_.data();
            Bucket *const ring = ring_.data();
            const Cycle base = base_;
            const bool farEmpty = far_.empty();
            u32 freeList = free_;
            size_t near = near_;
            for (Cycle i = 0; i < n && near != 0; ++i) {
                Bucket &b = ring[(base + i) & (kBuckets - 1)];
                for (u32 idx = b.head; idx != kNil;) {
                    Node &node = pool[idx];
                    if (!farEmpty) [[unlikely]] {
                        while (!far_.empty() &&
                               Later{}(node.e, far_.top())) {
                            apply(far_.top());
                            far_.pop();
                        }
                    }
                    apply(node.e);
                    const u32 next = node.next;
                    node.next = freeList;
                    freeList = idx;
                    idx = next;
                    --near;
                }
                b = {};
            }
            free_ = freeList;
            near_ = near;
            // A drain leaves the base where it is: the ring is empty,
            // and upTo + 1 would wrap.
            if (upTo != kCycleNever)
                base_ = upTo + 1;
        }
        while (!far_.empty() && far_.top().delivered <= upTo) {
            apply(far_.top());
            far_.pop();
        }
    }

    size_t size() const { return near_ + far_.size(); }
    bool empty() const { return size() == 0; }

  private:
    static constexpr u32 kNil = ~0u;

    [[gnu::noinline]] void pushFar(const T &e) { far_.push(e); }

    /** A new pool node (the free list is empty); returns its index. */
    [[gnu::noinline]] u32
    grow()
    {
        pool_.emplace_back();
        return u32(pool_.size() - 1);
    }

    /**
     * Append a node for an entry due at @p delivered to its bucket and
     * return the node's entry, or null if the entry belongs in the far
     * heap (beyond the horizon, or behind the base: a huge distance).
     */
    T *
    place(Cycle delivered)
    {
        if (delivered - base_ >= kBuckets)
            return nullptr;
        u32 idx = free_;
        if (idx != kNil) [[likely]] {
            free_ = pool_[idx].next;
            pool_[idx].next = kNil;
        } else {
            idx = grow();
        }
        Bucket &b = ring_[delivered & (kBuckets - 1)];
        if (b.tail == kNil)
            b.head = idx;
        else
            pool_[b.tail].next = idx;
        b.tail = idx;
        ++near_;
        return &pool_[idx].e;
    }

    struct Later
    {
        bool
        operator()(const T &a, const T &b) const
        {
            if (a.delivered != b.delivered)
                return a.delivered > b.delivered;
            return a.seq > b.seq;
        }
    };

    struct Node
    {
        T e;
        u32 next = kNil; ///< next node of the bucket, or of the free list
    };

    /** FIFO list of one cycle's entries, as pool indices. */
    struct Bucket
    {
        u32 head = kNil;
        u32 tail = kNil;
    };

    std::vector<Bucket> ring_; ///< cycle c in slot c % kBuckets
    std::vector<Node> pool_;
    u32 free_ = kNil;
    std::priority_queue<T, std::vector<T>, Later> far_;
    Cycle base_ = 0;  ///< first cycle not yet popped; ring covers kBuckets
    size_t near_ = 0; ///< entries in the ring
};

} // namespace cyclops

#endif // CYCLOPS_COMMON_CYCLE_QUEUE_H
