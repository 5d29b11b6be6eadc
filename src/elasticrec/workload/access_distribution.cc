#include "elasticrec/workload/access_distribution.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::workload {

// ---------------------------------------------------------------------
// LocalityDistribution
// ---------------------------------------------------------------------

LocalityDistribution::LocalityDistribution(std::uint64_t num_rows, double p)
    : numRows_(num_rows), p_(p)
{
    ERC_CHECK(num_rows > 0, "table must have at least one row");
    ERC_CHECK(p > 0.0 && p < 1.0, "locality P must be in (0, 1)");
}

double
LocalityDistribution::cdfAtFraction(double u) const
{
    if (u <= 0.0)
        return 0.0;
    if (u >= 1.0)
        return 1.0;
    if (u <= kHotRowFraction)
        return p_ * std::pow(u / kHotRowFraction, kHotShape);
    return p_ + (1.0 - p_) * std::pow((u - kHotRowFraction) /
                                          (1.0 - kHotRowFraction),
                                      kColdShape);
}

std::uint64_t
LocalityDistribution::sampleRank(Rng &rng) const
{
    const double v = rng.uniform();
    double u;
    if (v < p_) {
        u = kHotRowFraction * std::pow(v / p_, 1.0 / kHotShape);
    } else {
        u = kHotRowFraction +
            (1.0 - kHotRowFraction) *
                std::pow((v - p_) / (1.0 - p_), 1.0 / kColdShape);
    }
    auto rank = static_cast<std::uint64_t>(
        u * static_cast<double>(numRows_));
    return std::min(rank, numRows_ - 1);
}

double
LocalityDistribution::massOfTopRows(std::uint64_t x) const
{
    if (x >= numRows_)
        return 1.0;
    const double u =
        static_cast<double>(x) / static_cast<double>(numRows_);
    return cdfAtFraction(u);
}

// ---------------------------------------------------------------------
// PiecewiseCdfDistribution
// ---------------------------------------------------------------------

PiecewiseCdfDistribution::PiecewiseCdfDistribution(
    std::uint64_t num_rows, std::vector<Anchor> anchors)
    : numRows_(num_rows), anchors_(std::move(anchors))
{
    ERC_CHECK(num_rows > 0, "table must have at least one row");
    ERC_CHECK(anchors_.size() >= 2, "need at least two CDF anchors");
    // Normalize: force endpoints and validate monotonicity.
    if (anchors_.front().rowFraction > 0.0)
        anchors_.insert(anchors_.begin(), Anchor{0.0, 0.0});
    if (anchors_.back().rowFraction < 1.0)
        anchors_.push_back(Anchor{1.0, 1.0});
    anchors_.front() = Anchor{0.0, 0.0};
    anchors_.back() = Anchor{1.0, 1.0};
    for (std::size_t i = 1; i < anchors_.size(); ++i) {
        ERC_CHECK(anchors_[i].rowFraction >= anchors_[i - 1].rowFraction &&
                      anchors_[i].massFraction >=
                          anchors_[i - 1].massFraction,
                  "CDF anchors must be monotone");
    }
}

std::uint64_t
PiecewiseCdfDistribution::sampleRank(Rng &rng) const
{
    const double v = rng.uniform();
    // Find the segment that brackets mass v, then invert linearly.
    auto it = std::lower_bound(
        anchors_.begin(), anchors_.end(), v,
        [](const Anchor &a, double mass) { return a.massFraction < mass; });
    if (it == anchors_.begin())
        ++it;
    if (it == anchors_.end())
        --it;
    const Anchor &hi = *it;
    const Anchor &lo = *(it - 1);
    const double dm = hi.massFraction - lo.massFraction;
    const double frac = dm > 0 ? (v - lo.massFraction) / dm : 0.0;
    const double u =
        lo.rowFraction + frac * (hi.rowFraction - lo.rowFraction);
    auto rank = static_cast<std::uint64_t>(
        u * static_cast<double>(numRows_));
    return std::min(rank, numRows_ - 1);
}

double
PiecewiseCdfDistribution::massOfTopRows(std::uint64_t x) const
{
    if (x >= numRows_)
        return 1.0;
    const double u =
        static_cast<double>(x) / static_cast<double>(numRows_);
    auto it = std::lower_bound(
        anchors_.begin(), anchors_.end(), u,
        [](const Anchor &a, double uu) { return a.rowFraction < uu; });
    if (it == anchors_.begin())
        ++it;
    if (it == anchors_.end())
        --it;
    const Anchor &hi = *it;
    const Anchor &lo = *(it - 1);
    const double du = hi.rowFraction - lo.rowFraction;
    const double frac = du > 0 ? (u - lo.rowFraction) / du : 0.0;
    return lo.massFraction + frac * (hi.massFraction - lo.massFraction);
}

// ---------------------------------------------------------------------
// UniformDistribution
// ---------------------------------------------------------------------

UniformDistribution::UniformDistribution(std::uint64_t num_rows)
    : numRows_(num_rows)
{
    ERC_CHECK(num_rows > 0, "table must have at least one row");
}

std::uint64_t
UniformDistribution::sampleRank(Rng &rng) const
{
    return rng.uniformInt(numRows_);
}

double
UniformDistribution::massOfTopRows(std::uint64_t x) const
{
    if (x >= numRows_)
        return 1.0;
    return static_cast<double>(x) / static_cast<double>(numRows_);
}

} // namespace erec::workload
