#include "elasticrec/embedding/frequency_tracker.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "elasticrec/common/error.h"

namespace erec::embedding {

FrequencyTracker::FrequencyTracker(std::uint64_t num_rows)
    : counts_(num_rows, 0)
{
    ERC_CHECK(num_rows > 0, "tracker needs at least one row");
}

void
FrequencyTracker::record(std::uint32_t id)
{
    ERC_CHECK(id < counts_.size(), "row ID " << id << " out of range");
    ++counts_[id];
    ++total_;
}

void
FrequencyTracker::recordAll(const std::vector<std::uint32_t> &ids)
{
    for (auto id : ids)
        record(id);
}

std::uint64_t
FrequencyTracker::count(std::uint32_t id) const
{
    ERC_CHECK(id < counts_.size(), "row ID " << id << " out of range");
    return counts_[id];
}

std::vector<std::uint32_t>
FrequencyTracker::sortPermutation() const
{
    std::vector<std::uint32_t> perm(counts_.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return counts_[a] > counts_[b];
                     });
    return perm;
}

std::vector<std::uint32_t>
FrequencyTracker::invertPermutation(const std::vector<std::uint32_t> &perm)
{
    // Entries start at a sentinel no rank can take, so an ID seen twice
    // finds its entry claimed. In range and never repeated is exactly
    // a permutation.
    constexpr std::uint32_t kUnclaimed =
        std::numeric_limits<std::uint32_t>::max();
    ERC_CHECK(perm.size() <= kUnclaimed, "permutation too long");
    std::vector<std::uint32_t> inv(perm.size(), kUnclaimed);
    for (std::uint32_t rank = 0; rank < perm.size(); ++rank) {
        const std::uint32_t id = perm[rank];
        ERC_CHECK(id < inv.size(), "permutation value out of range");
        ERC_CHECK(inv[id] == kUnclaimed,
                  "permutation repeats ID " << id << " at ranks "
                                            << inv[id] << " and " << rank);
        inv[id] = rank;
    }
    return inv;
}

AccessCdf
FrequencyTracker::buildCdf(std::uint32_t granules) const
{
    ERC_CHECK(total_ > 0, "cannot build a CDF before recording accesses");
    std::vector<std::uint64_t> sorted = counts_;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    return AccessCdf::fromSortedCounts(sorted, granules);
}

double
FrequencyTracker::topRowsCoverage(std::uint64_t rows) const
{
    ERC_CHECK(total_ > 0, "no accesses recorded");
    std::vector<std::uint64_t> sorted = counts_;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    rows = std::min<std::uint64_t>(rows, sorted.size());
    std::uint64_t covered = 0;
    for (std::uint64_t i = 0; i < rows; ++i)
        covered += sorted[i];
    return static_cast<double>(covered) / static_cast<double>(total_);
}

} // namespace erec::embedding
