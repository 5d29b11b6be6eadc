#include "elasticrec/runtime/fork_join.h"

namespace erec::runtime {

void
ForkJoinBoard::parallelFor(std::size_t n,
                           const std::function<void(std::size_t)> &body)
{
    Record rec;
    rec.body = &body;
    rec.n = n;
    // Nobody idle to help, or no free slot: a plain loop, exactly as
    // in serial mode.
    if (idle_.load(std::memory_order_relaxed) == 0 || !publish(&rec)) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    for (std::size_t i = rec.next.fetch_add(1); i < n;
         i = rec.next.fetch_add(1))
        runIndex(&rec, i);
    join(&rec);
    if (rec.error != nullptr)
        std::rethrow_exception(rec.error);
}

void
ForkJoinBoard::runIndex(Record *rec, std::size_t i)
{
    try {
        (*rec->body)(i);
    } catch (...) {
        if (!rec->failed.exchange(true))
            rec->error = std::current_exception();
        // Cancel the indices nobody has claimed yet.
        rec->next.store(rec->n);
    }
}

bool
ForkJoinBoard::publish(Record *rec)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (openCount_ == kCapacity)
        return false;
    rec->open = true;
    open_[openCount_++] = rec;
    openHint_.store(openCount_);
    wakeOne();
    return true;
}

void
ForkJoinBoard::wakeOne() ERC_REQUIRES(mutex_)
{
    for (Sleeper *s = sleepers_; s != nullptr; s = s->next_)
        s->wakeIdle();
    joinCv_.notify_one();
}

bool
ForkJoinBoard::helpOne()
{
    Record *rec = nullptr;
    std::size_t i = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        while (rec == nullptr && openCount_ > 0) {
            Record *oldest = open_[0];
            i = oldest->next.fetch_add(1);
            if (i < oldest->n) {
                rec = oldest;
                ++rec->running;
                if (i + 1 < rec->n)
                    wakeOne(); // More left: bring in the next helper.
            } else {
                removeOpen(0); // Fully claimed: nothing left to share.
            }
        }
    }
    if (rec == nullptr)
        return false;
    runIndex(rec, i);
    helped_.fetch_add(1, std::memory_order_relaxed);
    // Past this critical section the record may be gone: its caller
    // returns as soon as it sees running == 0.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--rec->running == 0 && rec->joining)
        joinCv_.notify_all();
    return true;
}

// The unlock-help-relock shape is the classic false positive of the
// static analysis; TSan covers the interleavings in the runtime tests.
void
ForkJoinBoard::join(Record *rec) ERC_NO_THREAD_SAFETY_ANALYSIS
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; rec->open && k < openCount_; ++k)
        if (open_[k] == rec)
            removeOpen(k);
    while (rec->running > 0) {
        if (openCount_ > 0) {
            // Run another caller's index rather than sleep.
            lock.unlock();
            helpOne();
            lock.lock();
            continue;
        }
        rec->joining = true;
        idle_.fetch_add(1, std::memory_order_relaxed);
        joinCv_.wait(lock);
        idle_.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
ForkJoinBoard::removeOpen(std::size_t k) ERC_REQUIRES(mutex_)
{
    open_[k]->open = false;
    for (std::size_t j = k + 1; j < openCount_; ++j)
        open_[j - 1] = open_[j];
    --openCount_;
    openHint_.store(openCount_);
}

ForkJoinBoard::Sleeper::Sleeper(ForkJoinBoard *board, std::mutex &mutex,
                                std::condition_variable &cv)
    : board_(board), mutex_(&mutex), cv_(&cv)
{
    if (board_ == nullptr)
        return;
    const std::lock_guard<std::mutex> lock(board_->mutex_);
    next_ = board_->sleepers_;
    board_->sleepers_ = this;
}

ForkJoinBoard::Sleeper::~Sleeper()
{
    if (board_ == nullptr)
        return;
    const std::lock_guard<std::mutex> lock(board_->mutex_);
    Sleeper **link = &board_->sleepers_;
    while (*link != this)
        link = &(*link)->next_;
    *link = next_;
}

bool
ForkJoinBoard::Sleeper::idleWait(std::unique_lock<std::mutex> &lock)
{
    if (board_ == nullptr) {
        cv_->wait(lock);
        return false;
    }
    // Checked under the owner's mutex, which wakeIdle() takes after
    // a record is listed: either this sees the record, or the
    // publisher sees idle_ > 0 and notifies.
    if (board_->hasWork())
        return true;
    ++idle_;
    board_->idle_.fetch_add(1, std::memory_order_relaxed);
    cv_->wait(lock);
    board_->idle_.fetch_sub(1, std::memory_order_relaxed);
    --idle_;
    return false;
}

void
ForkJoinBoard::Sleeper::wakeIdle()
{
    bool idle = false;
    {
        // Taking the owner's mutex orders this against idleWait()'s
        // hasWork() check.
        const std::lock_guard<std::mutex> lock(*mutex_);
        idle = idle_ > 0;
    }
    if (idle)
        cv_->notify_one();
}

} // namespace erec::runtime
