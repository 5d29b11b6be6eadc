#pragma once

/**
 * @file
 * Bounded MPMC queue: the admission path of the concurrent serving
 * executor. Producers push individual items (queries); each pop()
 * hands one consumer the oldest item, so a query waits only for the
 * queries ahead of it and then goes to the next free consumer — the
 * FIFO-queue-per-pod model of the simulator's sim::Pod.
 *
 * pop() blocks until an item is queued or the queue is closed — or,
 * with a ForkJoinBoard, until the board has an index to claim.
 *
 * The capacity bound gives producers backpressure: push() blocks while
 * the queue is full, so an overloaded executor slows its clients down
 * instead of growing an unbounded backlog (the functional analogue of
 * the simulator's bounded pod queues).
 *
 * Hot-path discipline: storage is a fixed ring buffer sized at
 * construction and pop() moves into a caller-owned slot, so the steady
 * state allocates nothing — push/pop are wrapped in AllocGate scopes
 * charged to the "batch-queue" region, and the `erec_analyze` hotpath
 * pack treats both as roots.
 */

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/thread_annotations.h"
#include "elasticrec/runtime/fork_join.h"

namespace erec::runtime {

/** Backpressure bound of a BatchQueue. */
struct BatchQueueOptions
{
    /** Maximum queued items before push() blocks (backpressure). */
    std::size_t capacity = 1024;
};

/** What one BatchQueue::pop() call produced. */
enum class PopStatus
{
    /** The oldest queued item was moved into the caller's slot. */
    Item,
    /** Nothing is queued but the board has an index to claim. */
    Help,
    /** Closed and drained: the consumer's termination signal. */
    Closed,
};

/** Region charged by the AllocGates inside push() and pop(). */
inline AllocRegion &
batchQueueRegion()
{
    static AllocRegion region("batch-queue");
    return region;
}

template <typename T>
class BatchQueue
{
  public:
    /**
     * @param board When set, consumers waiting for an item also wake
     *        for the board's fork-join work (see pop()); it must
     *        outlive the queue.
     */
    explicit BatchQueue(BatchQueueOptions options,
                        ForkJoinBoard *board = nullptr)
        : opts_(options), sleeper_(board, mutex_, notEmpty_)
    {
        ERC_CHECK(opts_.capacity >= 1, "queue capacity must be >= 1");
        // All storage up front: the steady state never reallocates.
        ring_.resize(opts_.capacity);
    }

    /**
     * Enqueue one item, blocking while the queue is at capacity.
     * Returns false (item dropped) when the queue has been closed.
     */
    ERC_HOT_PATH
    bool push(T item)
    {
        const AllocGate gate(batchQueueRegion());
        std::unique_lock<std::mutex> lock(mutex_);
        while (size_ >= opts_.capacity && !closed_)
            notFull_.wait(lock);
        if (closed_)
            return false;
        ring_[(head_ + size_) % opts_.capacity] = std::move(item);
        ++size_;
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Move the oldest queued item into `*item` (PopStatus::Item),
     * blocking while the queue is empty and open. With a board, it
     * also returns PopStatus::Help when no item is queued but the
     * board has an index to claim: the consumer runs
     * ForkJoinBoard::helpOne() — outside its own gates — and pops
     * again. A queued item always goes first.
     *
     * Shutdown contract (drain-then-empty): items queued before
     * close() are never lost. Every pop() after close() returns a
     * residual item, in FIFO order, until the queue is empty, and from
     * then on returns PopStatus::Closed immediately. Closed is
     * therefore the one and only termination signal a consumer needs.
     */
    ERC_HOT_PATH
    PopStatus pop(T *item)
    {
        const AllocGate gate(batchQueueRegion());
        std::unique_lock<std::mutex> lock(mutex_);
        while (size_ == 0 && !closed_)
            if (sleeper_.idleWait(lock))
                return PopStatus::Help; // Nothing queued: help the board.
        if (size_ == 0)
            return PopStatus::Closed;
        *item = std::move(ring_[head_]);
        head_ = (head_ + 1) % opts_.capacity;
        --size_;
        notFull_.notify_one();
        return PopStatus::Item;
    }

    /**
     * Reject future pushes and wake every waiter. Items already queued
     * still drain through pop() — see the drain-then-empty contract on
     * pop(). Idempotent.
     */
    void close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    std::size_t depth() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    bool closed() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    const BatchQueueOptions &options() const { return opts_; }

  private:
    const BatchQueueOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    /** Fixed-size ring; [head_, head_+size_) mod capacity is live. */
    std::vector<T> ring_ ERC_GUARDED_BY(mutex_);
    std::size_t head_ ERC_GUARDED_BY(mutex_) = 0;
    std::size_t size_ ERC_GUARDED_BY(mutex_) = 0;
    bool closed_ ERC_GUARDED_BY(mutex_) = false;
    /** Consumers wait for an item here; registered on the board, if
     *  any. Every waiter is idle, so a board wake is never lost. */
    ForkJoinBoard::Sleeper sleeper_;
};

} // namespace erec::runtime
