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
// ZipfDistribution (Hormann rejection-inversion, as popularized by the
// Apache Commons RejectionInversionZipfSampler)
// ---------------------------------------------------------------------

ZipfDistribution::ZipfDistribution(std::uint64_t num_rows, double skew)
    : numRows_(num_rows), s_(skew)
{
    ERC_CHECK(num_rows > 0, "table must have at least one row");
    ERC_CHECK(skew > 0.0, "zipf skew must be positive");
    totalMass_ = harmonic(static_cast<double>(numRows_));
    hImaxPlus1_ = hIntegral(static_cast<double>(numRows_) + 0.5);
    hIx1_ = hIntegral(1.5) - 1.0;
    sBound_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
}

double
ZipfDistribution::harmonic(double n) const
{
    // Generalized harmonic number H_{n,s} via Euler-Maclaurin; exact sum
    // for small n.
    if (n <= 64) {
        double sum = 0.0;
        for (std::uint64_t k = 1; k <= static_cast<std::uint64_t>(n); ++k)
            sum += std::pow(static_cast<double>(k), -s_);
        return sum;
    }
    double sum = 0.0;
    constexpr int kExact = 16;
    for (int k = 1; k <= kExact; ++k)
        sum += std::pow(static_cast<double>(k), -s_);
    const double a = kExact;
    if (std::abs(s_ - 1.0) < 1e-12) {
        sum += std::log(n / a);
    } else {
        sum += (std::pow(n, 1.0 - s_) - std::pow(a, 1.0 - s_)) / (1.0 - s_);
    }
    sum += 0.5 * (std::pow(n, -s_) - std::pow(a, -s_));
    return sum;
}

double
ZipfDistribution::hIntegral(double x) const
{
    const double log_x = std::log(x);
    // Integral of x^-s: (x^(1-s) - 1)/(1-s), with the s == 1 limit log x.
    const double t = log_x * (1.0 - s_);
    // Use expm1-based evaluation for numerical stability near s == 1.
    double helper;
    if (std::abs(t) > 1e-8)
        helper = std::expm1(t) / t;
    else
        helper = 1.0 + t * 0.5 * (1.0 + t / 3.0 * (1.0 + 0.25 * t));
    return log_x * helper;
}

double
ZipfDistribution::hIntegralInverse(double x) const
{
    double t = x * (1.0 - s_);
    if (t < -1.0)
        t = -1.0;
    double log_res;
    if (std::abs(t) > 1e-8)
        log_res = std::log1p(t) / (1.0 - s_);
    else
        log_res = x * (1.0 + t * (-0.5 + t * (1.0 / 3.0 - 0.25 * t)));
    return std::exp(log_res);
}

double
ZipfDistribution::h(double x) const
{
    return std::exp(-s_ * std::log(x));
}

std::uint64_t
ZipfDistribution::sampleRank(Rng &rng) const
{
    // Returns a 1-based zipf value in [1, numRows], converted to a
    // 0-based rank on return.
    while (true) {
        const double u =
            hImaxPlus1_ + rng.uniform() * (hIx1_ - hImaxPlus1_);
        const double x = hIntegralInverse(u);
        auto k = static_cast<double>(static_cast<std::uint64_t>(x + 0.5));
        k = std::clamp(k, 1.0, static_cast<double>(numRows_));
        if (k - x <= sBound_ || u >= hIntegral(k + 0.5) - h(k)) {
            return static_cast<std::uint64_t>(k) - 1;
        }
    }
}

double
ZipfDistribution::massOfTopRows(std::uint64_t x) const
{
    if (x == 0)
        return 0.0;
    if (x >= numRows_)
        return 1.0;
    return harmonic(static_cast<double>(x)) / totalMass_;
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
