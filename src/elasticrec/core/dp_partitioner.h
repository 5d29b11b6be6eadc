#pragma once

/**
 * @file
 * Dynamic-programming embedding-table partitioner (Algorithm 2 and
 * Figure 10 of the paper).
 *
 * Given a hotness-sorted table of N rows and a shard-cost function
 * COST(begin, end), the partitioner finds the number of shards and the
 * partitioning points minimizing total estimated memory consumption:
 *
 *   Mem[s][x] = min over m < x of Mem[s-1][m] + COST(m, x)
 *
 * Candidate boundaries may be every row (exact mode, used for small
 * tables and the Figure 10 unit test) or a granule grid (the default
 * for paper-scale 20M-row tables: the recurrence runs over G uniform
 * granules, preserving achievable boundaries up to one granule).
 */

#include <cstdint>
#include <functional>
#include <vector>

namespace erec::core {

/** Cost of a shard covering hotness-sorted rows [begin, end). */
using ShardCostFn =
    std::function<double(std::uint64_t begin, std::uint64_t end)>;

/** The output of the partitioner: shard end boundaries and plan cost. */
struct PartitionPlan
{
    /**
     * Exclusive end row of each shard, strictly increasing; the last
     * element equals the table row count. These are the paper's
     * "partitioning points".
     */
    std::vector<std::uint64_t> boundaries;
    /** Estimated total memory cost of the plan (cost-model units). */
    double cost = 0.0;

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(boundaries.size());
    }
};

class DpPartitioner
{
  public:
    struct Options
    {
        /** S_max: largest shard count explored. */
        std::uint32_t maxShards = 16;
        /**
         * Number of uniform candidate boundaries. Clamped to the row
         * count; pass >= numRows (or UINT32_MAX) for exact row-level
         * partitioning.
         */
        std::uint32_t granules = 512;
    };

    /**
     * @param num_rows Rows in the (sorted) table.
     * @param cost COST(begin, end) function, half-open 0-based range.
     * @param options Search-space controls.
     */
    DpPartitioner(std::uint64_t num_rows, ShardCostFn cost,
                  Options options);

    /** As above with default Options. */
    DpPartitioner(std::uint64_t num_rows, ShardCostFn cost);

    /** As above, but with explicit candidate boundaries (row indices,
     *  strictly increasing, last == num_rows). */
    DpPartitioner(std::uint64_t num_rows, ShardCostFn cost,
                  std::vector<std::uint64_t> candidates,
                  std::uint32_t max_shards);

    /**
     * Run Algorithm 2: evaluate Mem[s][N] for s = 1..maxShards and
     * return the plan with the minimum memory cost.
     */
    PartitionPlan findOptimalPlan() const;

    /**
     * Best plan using exactly `num_shards` shards (used by the
     * Figure 12(d) manual shard-count sweep).
     */
    PartitionPlan planWithShards(std::uint32_t num_shards) const;

    const std::vector<std::uint64_t> &candidates() const
    {
        return candidates_;
    }

  private:
    void runDp() const;

    std::uint64_t numRows_;
    ShardCostFn cost_;
    std::uint32_t maxShards_;
    std::vector<std::uint64_t> candidates_;

    // Memoized DP state (lazily computed once).
    mutable bool solved_ = false;
    /** mem_[s][g]: min cost of covering candidates [0, g] with s+1 shards. */
    mutable std::vector<std::vector<double>> mem_;
    /** parent_[s][g]: candidate index where the last shard begins. */
    mutable std::vector<std::vector<std::uint32_t>> parent_;
};

} // namespace erec::core
