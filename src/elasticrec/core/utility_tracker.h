#pragma once

/**
 * @file
 * Memory-utility measurement (Figures 14 and 17 of the paper): the
 * percentage of embeddings within a shard that are actually touched
 * while servicing queries. The paper measures utility over the first
 * 1,000 queries of a run.
 */

#include <cstdint>
#include <vector>

namespace erec::core {

class UtilityTracker
{
  public:
    /**
     * @param boundaries Shard partitioning points in hotness-sorted
     *        space (last entry = table row count). Pass a single
     *        boundary {numRows} for the model-wise monolithic layout.
     */
    explicit UtilityTracker(std::vector<std::uint64_t> boundaries);

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(boundaries_.size());
    }

    /** Mark one hotness rank as touched. */
    void recordRank(std::uint64_t rank);

    /** Rows touched within shard s so far. */
    std::uint64_t touchedRows(std::uint32_t s) const;

    /** Utility of shard s: touched rows / shard rows. */
    double shardUtility(std::uint32_t s) const;

    /** Utility of the whole table. */
    double overallUtility() const;

    /** Rows covered by shard s. */
    std::uint64_t shardRows(std::uint32_t s) const;

  private:
    std::vector<std::uint64_t> boundaries_;
    std::vector<bool> touched_;
    std::vector<std::uint64_t> touchedPerShard_;
};

} // namespace erec::core
