#include "elasticrec/embedding/access_cdf.h"

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::embedding {

void
AccessCdf::init(std::uint64_t num_rows, std::uint32_t granules)
{
    ERC_CHECK(num_rows > 0, "CDF needs at least one row");
    ERC_CHECK(granules > 0, "CDF needs at least one granule");
    numRows_ = num_rows;
    const auto g = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(granules, num_rows));
    rowsPerGranule_ = (num_rows + g - 1) / g;
    // Recompute the granule count after ceiling division so the last
    // granule is non-empty.
    const auto eff = static_cast<std::uint32_t>(
        (num_rows + rowsPerGranule_ - 1) / rowsPerGranule_);
    cum_.assign(eff + 1, 0.0);
}

void
AccessCdf::normalize()
{
    cum_[0] = 0.0;
    double prev = 0.0;
    for (std::size_t g = 1; g < cum_.size(); ++g) {
        // Enforce monotonicity against numeric noise in callers.
        cum_[g] = std::max(cum_[g], prev);
        prev = cum_[g];
    }
    const double total = cum_.back();
    ERC_CHECK(total > 0.0, "CDF has zero total mass");
    for (auto &v : cum_)
        v /= total;
    cum_.back() = 1.0;
}

AccessCdf
AccessCdf::fromSortedCounts(const std::vector<std::uint64_t> &sorted_counts,
                            std::uint32_t granules)
{
    ERC_CHECK(!sorted_counts.empty(), "need at least one row count");
    for (std::size_t i = 1; i < sorted_counts.size(); ++i) {
        ERC_CHECK(sorted_counts[i] <= sorted_counts[i - 1],
                  "counts must be sorted non-increasing (hotness order)");
    }
    AccessCdf cdf;
    cdf.init(sorted_counts.size(), granules);
    double running = 0.0;
    std::uint64_t row = 0;
    for (std::uint32_t g = 1; g <= cdf.granules(); ++g) {
        const std::uint64_t end = cdf.rowsAtGranule(g);
        for (; row < end; ++row)
            running += static_cast<double>(sorted_counts[row]);
        cdf.cum_[g] = running;
    }
    cdf.normalize();
    return cdf;
}

std::uint64_t
AccessCdf::rowsAtGranule(std::uint32_t g) const
{
    return std::min<std::uint64_t>(
        static_cast<std::uint64_t>(g) * rowsPerGranule_, numRows_);
}

double
AccessCdf::massOfTopRows(std::uint64_t x) const
{
    if (x == 0)
        return 0.0;
    if (x >= numRows_)
        return 1.0;
    const std::uint64_t g = x / rowsPerGranule_;
    const std::uint64_t lo_rows = g * rowsPerGranule_;
    const std::uint64_t hi_rows = rowsAtGranule(
        static_cast<std::uint32_t>(g) + 1);
    const double lo = cum_[g];
    const double hi = cum_[g + 1];
    const double frac = static_cast<double>(x - lo_rows) /
                        static_cast<double>(hi_rows - lo_rows);
    return lo + (hi - lo) * frac;
}

double
AccessCdf::massOfRange(std::uint64_t begin, std::uint64_t end) const
{
    ERC_CHECK(begin <= end, "range begin must not exceed end");
    return massOfTopRows(end) - massOfTopRows(begin);
}

} // namespace erec::embedding
