#pragma once

/**
 * @file
 * The fork-join board: how Executor::parallelFor spreads one call's
 * index space over threads that would otherwise sit idle.
 *
 * A caller publishes a *record* (kept in its own stack frame) on the
 * board, claims indices of it itself, and then joins. Idle threads
 * claim the indices the caller has not reached yet: dispatcher pumps
 * waiting for a query (BatchQueue) and other callers waiting in their
 * own join. Pumps wait through a Sleeper, which keeps the idle-wait
 * protocol in one place. Publishing a record wakes one idle waiter
 * per sleeper (and one joiner), and a helper that claims an index
 * while more are left wakes the next, so a call whose indices last
 * microseconds does not wake every idle thread for nothing. A pump
 * pops any queued query before it claims an index, so a saturated
 * stack still serves each query inline on one pump.
 *
 * Rules:
 *  - fixed capacity: with kCapacity records open, or with no thread
 *    idle, parallelFor() runs every index inline on the caller;
 *  - a body that throws fails only its own call: the first exception
 *    cancels the unclaimed indices and is rethrown from parallelFor()
 *    once every claimed index has finished, wherever it ran;
 *  - a record never outlives its call: the caller takes it off the
 *    board and waits until no helper is inside one of its indices,
 *    running other records' indices meanwhile.
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>

#include "elasticrec/common/thread_annotations.h"

namespace erec::runtime {

class ForkJoinBoard
{
  public:
    /** Records open at once; a full board makes parallelFor() run
     *  inline. */
    static constexpr std::size_t kCapacity = 16;

    /** Every Sleeper registered on the board must be gone first. */
    ForkJoinBoard() = default;
    ForkJoinBoard(const ForkJoinBoard &) = delete;
    ForkJoinBoard &operator=(const ForkJoinBoard &) = delete;

    /**
     * Run body(0..n-1) on the caller plus any idle helper and return
     * once every index finished; rethrows the first exception a body
     * threw (see the file comment). The body must only write disjoint
     * state per index.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Lock-free hint: an open record may have an unclaimed index. */
    bool hasWork() const
    {
        return openHint_.load(std::memory_order_seq_cst) > 0;
    }

    /**
     * Claim one index of the oldest open record and run it on the
     * calling thread. Returns false when nothing was left to claim.
     */
    bool helpOne();

    /** Indices run by a thread other than their record's caller. */
    std::uint64_t helpedItems() const
    {
        return helped_.load(std::memory_order_relaxed);
    }

    /**
     * One idle-wait point: a condition variable that threads wait on
     * under their owner's mutex (a BatchQueue's item wait, where a
     * dispatcher's pumps sleep). It is registered on the board for its
     * lifetime, so publishing a record wakes one of its idle waiters.
     * Every wait on the condition variable goes through idleWait(), so
     * such a wake always lands on an idle thread. With a null board
     * every call is a plain condition-variable wait.
     */
    class Sleeper
    {
      public:
        /** The board, when set, must outlive the sleeper. */
        Sleeper(ForkJoinBoard *board, std::mutex &mutex,
                std::condition_variable &cv);
        ~Sleeper();
        Sleeper(const Sleeper &) = delete;
        Sleeper &operator=(const Sleeper &) = delete;

        /**
         * Wait on the condition variable as an idle thread; `lock`
         * holds the owner's mutex. Returns true at once, without
         * waiting, when the board has an index to claim: the caller
         * unlocks and runs board()->helpOne(). Otherwise waits once
         * and returns false on wake-up; the caller re-checks its own
         * state.
         */
        bool idleWait(std::unique_lock<std::mutex> &lock);

        ForkJoinBoard *board() const { return board_; }

      private:
        friend class ForkJoinBoard;
        /** Notify one idle waiter, if any; locks the owner's mutex. */
        void wakeIdle();

        ForkJoinBoard *board_;
        std::mutex *mutex_;
        std::condition_variable *cv_;
        /** Threads inside idleWait()'s wait (owner's mutex). */
        std::size_t idle_ = 0;
        /** Next sleeper on the board's list (board mutex). */
        Sleeper *next_ = nullptr;
    };

  private:
    /** One parallelFor() call's shared state, in the caller's stack
     *  frame. */
    struct Record
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t n = 0;
        /** Next unclaimed index; claims at or past n fail. */
        std::atomic<std::size_t> next{0};
        /** Set by the first failing index, which alone writes error. */
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        /** Helpers inside an index of this record (board mutex). */
        std::size_t running = 0;
        /** Still listed in open_ (board mutex). */
        bool open = false;
        /** The caller sleeps in join() (board mutex). */
        bool joining = false;
    };

    /** Run one claimed index; a throw is recorded, not propagated. */
    static void runIndex(Record *rec, std::size_t i);
    /** List rec and wake a helper; false when the board is full. */
    bool publish(Record *rec);
    /** Notify one idle waiter of every sleeper, and one joiner. */
    void wakeOne() ERC_REQUIRES(mutex_);
    /** Take rec off the board, then wait until no helper is inside
     *  one of its indices, running other records' indices meanwhile. */
    void join(Record *rec);
    void removeOpen(std::size_t k) ERC_REQUIRES(mutex_);

    mutable std::mutex mutex_;
    /** Joiners sleep here (predicate under mutex_). */
    std::condition_variable joinCv_;
    /** Open records, oldest first: [0, openCount_). */
    std::array<Record *, kCapacity> open_ ERC_GUARDED_BY(mutex_) = {};
    std::size_t openCount_ ERC_GUARDED_BY(mutex_) = 0;
    /** Registered sleepers, an intrusive list. */
    Sleeper *sleepers_ ERC_GUARDED_BY(mutex_) = nullptr;
    /** openCount_, readable without the mutex. */
    std::atomic<std::size_t> openHint_{0};
    /** Threads waiting idle: in a Sleeper's idleWait() or asleep in
     *  join(). parallelFor() publishes only while one is. */
    std::atomic<std::size_t> idle_{0};
    std::atomic<std::uint64_t> helped_{0};
};

} // namespace erec::runtime
