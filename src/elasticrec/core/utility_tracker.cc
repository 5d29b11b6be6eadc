#include "elasticrec/core/utility_tracker.h"

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::core {

UtilityTracker::UtilityTracker(std::vector<std::uint64_t> boundaries)
    : boundaries_(std::move(boundaries))
{
    ERC_CHECK(!boundaries_.empty(), "need at least one shard");
    std::uint64_t prev = 0;
    for (auto b : boundaries_) {
        ERC_CHECK(b > prev, "boundaries must be strictly increasing");
        prev = b;
    }
    touched_.assign(boundaries_.back(), false);
    touchedPerShard_.assign(boundaries_.size(), 0);
}

void
UtilityTracker::recordRank(std::uint64_t rank)
{
    ERC_CHECK(rank < touched_.size(), "rank out of range");
    if (touched_[rank])
        return;
    touched_[rank] = true;
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), rank);
    ++touchedPerShard_[static_cast<std::size_t>(
        it - boundaries_.begin())];
}

std::uint64_t
UtilityTracker::touchedRows(std::uint32_t s) const
{
    ERC_CHECK(s < numShards(), "shard index out of range");
    return touchedPerShard_[s];
}

std::uint64_t
UtilityTracker::shardRows(std::uint32_t s) const
{
    ERC_CHECK(s < numShards(), "shard index out of range");
    const std::uint64_t begin = s == 0 ? 0 : boundaries_[s - 1];
    return boundaries_[s] - begin;
}

double
UtilityTracker::shardUtility(std::uint32_t s) const
{
    return static_cast<double>(touchedRows(s)) /
           static_cast<double>(shardRows(s));
}

double
UtilityTracker::overallUtility() const
{
    std::uint64_t touched = 0;
    for (auto t : touchedPerShard_)
        touched += t;
    return static_cast<double>(touched) /
           static_cast<double>(touched_.size());
}

} // namespace erec::core
