#pragma once

/**
 * @file
 * Cumulative access-mass function over a hotness-sorted embedding table.
 *
 * This is the CDF consumed by the paper's deployment-cost model
 * (Algorithm 1, line 11): massOfTopRows(x) is the fraction of all table
 * accesses expected to land on the x hottest rows. It can be built from
 * measured access counts (the production path: a FrequencyTracker
 * history) or directly from an analytic AccessDistribution.
 *
 * Internally the CDF is compressed to a fixed number of granules; the
 * dynamic-programming partitioner also runs on this granule grid, which
 * turns the O(Smax * N^2) recurrence into O(Smax * G^2) with G << N
 * while preserving the achievable partition boundaries up to one granule
 * of rounding.
 */

#include <cstdint>
#include <vector>

namespace erec::embedding {

class AccessCdf
{
  public:
    /**
     * Build from per-row access counts indexed by hotness rank (counts
     * must be sorted non-increasing, i.e. already in Figure 8(b) order).
     *
     * @param sorted_counts Access count for each row, hottest first.
     * @param granules Number of CDF granules (clamped to the row count).
     */
    static AccessCdf fromSortedCounts(
        const std::vector<std::uint64_t> &sorted_counts,
        std::uint32_t granules = 1024);

    /**
     * Build analytically from a cumulative mass function.
     *
     * @param num_rows Table row count.
     * @param mass_of_top_rows Callable double(std::uint64_t x) returning
     *        the fraction of accesses covered by the x hottest rows.
     * @param granules Number of CDF granules.
     */
    template <typename MassFn>
    static AccessCdf
    fromMassFunction(std::uint64_t num_rows, MassFn &&mass_of_top_rows,
                     std::uint32_t granules = 1024)
    {
        AccessCdf cdf;
        cdf.init(num_rows, granules);
        for (std::uint32_t g = 1; g <= cdf.granules(); ++g)
            cdf.cum_[g] = mass_of_top_rows(cdf.rowsAtGranule(g));
        cdf.normalize();
        return cdf;
    }

    /** Number of rows in the underlying table. */
    std::uint64_t numRows() const { return numRows_; }

    /** Number of granules the CDF is resolved to. */
    std::uint32_t granules() const
    {
        return static_cast<std::uint32_t>(cum_.size() - 1);
    }

    /** Row index (exclusive end) covered by granules [0, g). */
    std::uint64_t rowsAtGranule(std::uint32_t g) const;

    /**
     * Fraction of accesses covered by the x hottest rows; linear
     * interpolation between granule boundaries.
     */
    double massOfTopRows(std::uint64_t x) const;

    /** Mass falling inside the half-open rank range [begin, end). */
    double massOfRange(std::uint64_t begin, std::uint64_t end) const;

    /** Cumulative mass at a granule boundary (exact, no interpolation).
     *  A probe: determinism_test compares two CDFs granule by granule. */
    double massAtGranule(std::uint32_t g) const { return cum_[g]; }

    /** Locality metric P: mass on the top 10% of rows. */
    double localityP() const { return massOfTopRows(numRows_ / 10); }

  private:
    void init(std::uint64_t num_rows, std::uint32_t granules);
    void normalize();

    std::uint64_t numRows_ = 0;
    std::uint64_t rowsPerGranule_ = 0;
    /** cum_[g] = mass of the first g granules; cum_[0] = 0. */
    std::vector<double> cum_;
};

} // namespace erec::embedding
