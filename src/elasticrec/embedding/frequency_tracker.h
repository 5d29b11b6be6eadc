#pragma once

/**
 * @file
 * Per-row access-frequency history, the production mechanism the paper
 * relies on for its table preprocessing step (Section IV-B): "The access
 * frequency of an embedding can be determined by keeping a history of
 * each embedding's access count within a given time period."
 *
 * The tracker records raw access streams (original table IDs), then
 * derives the hotness sort permutation (Figure 8(b)) and the access CDF
 * that feed the partitioning algorithm.
 */

#include <cstdint>
#include <vector>

#include "elasticrec/embedding/access_cdf.h"

namespace erec::embedding {

class FrequencyTracker
{
  public:
    explicit FrequencyTracker(std::uint64_t num_rows);

    std::uint64_t numRows() const { return counts_.size(); }

    /** Record one access to an original table row ID. */
    void record(std::uint32_t id);

    /** Record a batch of accesses (e.g. a query's index array). */
    void recordAll(const std::vector<std::uint32_t> &ids);

    /** Total accesses recorded. */
    std::uint64_t totalAccesses() const { return total_; }

    /** Raw count for one row. */
    std::uint64_t count(std::uint32_t id) const;

    /**
     * Hotness sort permutation: perm[rank] = original ID of the rank-th
     * hottest row (ties broken by ID for determinism). This is the
     * "sorted embedding table" layout of Figure 8(b).
     */
    std::vector<std::uint32_t> sortPermutation() const;

    /**
     * Inverse permutation: inv[originalId] = hotness rank. Used by the
     * bucketizer to translate production IDs into sorted-space IDs.
     * Raises ConfigError unless perm is a permutation of [0, size):
     * a value out of range, or one repeated (which would leave another
     * ID silently routed to rank 0).
     */
    static std::vector<std::uint32_t>
    invertPermutation(const std::vector<std::uint32_t> &perm);

    /**
     * Build the access CDF over hotness-sorted rows, compressed to the
     * given number of granules.
     */
    AccessCdf buildCdf(std::uint32_t granules = 1024) const;

    /** Fraction of accesses covered by the top `rows` hottest rows. */
    double topRowsCoverage(std::uint64_t rows) const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace erec::embedding
