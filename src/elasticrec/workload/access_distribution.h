#pragma once

/**
 * @file
 * Embedding-table access distributions.
 *
 * All distributions are defined over *hotness rank* space: rank 0 is the
 * hottest row, rank (numRows-1) the coldest. Real tables store rows in an
 * arbitrary order; the embedding module composes these distributions with
 * a permutation to obtain original-ID access streams (Figure 8(a) vs (b)
 * in the paper).
 *
 * Every distribution exposes its exact cumulative mass function
 * massOfTopRows(x): the fraction of all accesses that fall on the x
 * hottest rows. This is the CDF used by the paper's deployment-cost model
 * (Algorithm 1, line 11).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/common/rng.h"

namespace erec::workload {

/** Interface for a hotness-ranked access distribution. */
class AccessDistribution
{
  public:
    virtual ~AccessDistribution() = default;

    /** Number of rows (embedding vectors) in the table. */
    virtual std::uint64_t numRows() const = 0;

    /** Sample a hotness rank in [0, numRows). */
    virtual std::uint64_t sampleRank(Rng &rng) const = 0;

    /**
     * Fraction of total accesses covered by the x hottest rows
     * (x in [0, numRows]). Monotone non-decreasing with
     * massOfTopRows(0) == 0 and massOfTopRows(numRows) == 1.
     */
    virtual double massOfTopRows(std::uint64_t x) const = 0;

    /**
     * Locality metric P from the paper: the fraction of accesses covered
     * by the top 10% hottest rows.
     */
    double localityP() const { return massOfTopRows(numRows() / 10); }
};

/**
 * The paper's locality model. A fraction kHotRowFraction of rows (10%)
 * receives fraction P of all accesses. Within the hot and cold regions
 * mass decays as a power law, giving the concave sorted-frequency
 * curves of Figure 6.
 *
 * The CDF over the normalized rank u in [0, 1] is
 *   F(u) = P * (u/h)^a                      for u <= h
 *   F(u) = P + (1-P) * ((u-h)/(1-h))^b      for u >  h
 * with h = kHotRowFraction, a = kHotShape (< 1, strong skew inside the
 * hot set) and b = kColdShape (1, uniform over cold rows). Sampling is
 * exact inverse-CDF, so the analytic CDF and the empirical stream agree.
 */
class LocalityDistribution : public AccessDistribution
{
  public:
    static constexpr double kHotRowFraction = 0.10;
    static constexpr double kHotShape = 0.35;
    static constexpr double kColdShape = 1.0;

    LocalityDistribution(std::uint64_t num_rows, double p);

    std::uint64_t numRows() const override { return numRows_; }
    std::uint64_t sampleRank(Rng &rng) const override;
    double massOfTopRows(std::uint64_t x) const override;

  private:
    double cdfAtFraction(double u) const;

    std::uint64_t numRows_;
    double p_;
};

/**
 * Piecewise CDF distribution described by anchor points
 * (rowFraction, massFraction). Used to mimic the sorted access-frequency
 * shape of real datasets (Amazon Books, Criteo, MovieLens) without the
 * raw data; see workload/datasets.h.
 *
 * The CDF is linearly interpolated between anchors and sampled by exact
 * inversion.
 */
class PiecewiseCdfDistribution : public AccessDistribution
{
  public:
    struct Anchor
    {
        double rowFraction;  //!< u in [0, 1]
        double massFraction; //!< F(u) in [0, 1]
    };

    PiecewiseCdfDistribution(std::uint64_t num_rows,
                             std::vector<Anchor> anchors);

    std::uint64_t numRows() const override { return numRows_; }
    std::uint64_t sampleRank(Rng &rng) const override;
    double massOfTopRows(std::uint64_t x) const override;

  private:
    std::uint64_t numRows_;
    std::vector<Anchor> anchors_;
};

/** Uniform access over all rows (the zero-locality baseline). */
class UniformDistribution : public AccessDistribution
{
  public:
    explicit UniformDistribution(std::uint64_t num_rows);

    std::uint64_t numRows() const override { return numRows_; }
    std::uint64_t sampleRank(Rng &rng) const override;
    double massOfTopRows(std::uint64_t x) const override;

  private:
    std::uint64_t numRows_;
};

/** Owning handle used throughout configuration structs. */
using AccessDistributionPtr = std::shared_ptr<const AccessDistribution>;

} // namespace erec::workload
