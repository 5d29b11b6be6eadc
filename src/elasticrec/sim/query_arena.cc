#include "elasticrec/sim/query_arena.h"

namespace erec::sim {

std::uint32_t
QueryArena::allocate(SimTime arrival, std::uint32_t outstanding,
                     obs::TraceContext root)
{
    if (freeList_.empty())
        grow();
    const std::uint32_t slot = freeList_.back();
    freeList_.pop_back();
    arrival_[slot] = arrival;
    lastDone_[slot] = 0;
    outstanding_[slot] = outstanding;
    dead_[slot] = 0;
    root_[slot] = root;
    return slot;
}

// ERC_HOT_PATH_ALLOW("cold growth path: the SoA vectors double only when the in-flight population exceeds every previous peak; steady-state allocation cycles through the free list")
void
QueryArena::grow()
{
    const std::size_t old = arrival_.size();
    const std::size_t wider = old == 0 ? 64 : old * 2;
    arrival_.resize(wider, 0);
    lastDone_.resize(wider, 0);
    outstanding_.resize(wider, 0);
    dead_.resize(wider, 0);
    root_.resize(wider, obs::TraceContext{});
    // Reserve free-list capacity for every slot up front so release()
    // can push without ever allocating.
    freeList_.reserve(wider);
    // Hand out low slots first (the list is LIFO).
    for (std::size_t s = wider; s > old; --s)
        freeList_.push_back(static_cast<std::uint32_t>(s - 1));
}

} // namespace erec::sim
