#pragma once

/**
 * @file
 * Deployment-cost estimation (Algorithm 1 of the paper).
 *
 * For a candidate embedding shard covering sorted rows [begin, end):
 *
 *   REPLICAS(begin, end):
 *     probability   = CDF(end) - CDF(begin)
 *     n_s           = probability x n_t
 *     estimated_QPS = QPS(n_s)            (profiling regression)
 *     num_replicas  = target_traffic / estimated_QPS
 *
 *   CAPACITY(begin, end) = rows x row_bytes
 *
 *   COST(begin, end) = num_replicas x (CAPACITY + min_mem_alloc)
 *
 * Ranges here are half-open and 0-based (the paper uses inclusive
 * 1-based IDs k..j; COST(k, j) == cost(k-1, j)).
 */

#include <cstdint>
#include <memory>

#include "elasticrec/common/units.h"
#include "elasticrec/core/qps_model.h"
#include "elasticrec/embedding/access_cdf.h"

namespace erec::core {

/** Parameters of the cost model. */
struct CostModelParams
{
    /**
     * Target traffic constant (queries/sec). Any value that keeps
     * replica counts above one works (the DP compares plans under the
     * same constant); the paper uses 1000.
     */
    double targetTraffic = 1000.0;
    /** Average gathers per query against the whole table (n_t). */
    double gathersPerQuery = 4096.0;
    /** Bytes of one embedding row. */
    Bytes rowBytes = 128;
    /**
     * Minimum memory allocation of any shard container (code, runtime,
     * input buffers) — the term that penalizes over-sharding and
     * produces the Figure 12(d) plateau.
     */
    Bytes minMemAlloc = 512 * units::kMiB;
    /**
     * When true (deployment semantics), replica counts are rounded up
     * and floored at one. When false, fractional replicas are used,
     * matching Algorithm 1 literally; the DP default keeps the ceil so
     * plans account for the at-least-one-replica cost of cold shards.
     */
    bool ceilReplicas = true;
};

class CostModel
{
  public:
    /**
     * @param cdf Access CDF over the hotness-sorted table.
     * @param qps Profiling-based QPS regression for this platform.
     * @param params Cost parameters (n_t, row bytes, min alloc, target).
     */
    CostModel(std::shared_ptr<const embedding::AccessCdf> cdf,
              std::shared_ptr<const QpsModel> qps, CostModelParams params);

    /** Expected gathers per query landing in rows [begin, end): n_s. */
    double shardGathers(std::uint64_t begin, std::uint64_t end) const;

    /** Estimated QPS of a shard covering rows [begin, end). */
    double shardQps(std::uint64_t begin, std::uint64_t end) const;

    /** REPLICAS(begin, end): replicas needed to meet targetTraffic. */
    double replicas(std::uint64_t begin, std::uint64_t end) const;

    /** CAPACITY(begin, end): shard embedding bytes. */
    Bytes capacity(std::uint64_t begin, std::uint64_t end) const;

    /** COST(begin, end): expected memory consumption in bytes. */
    double cost(std::uint64_t begin, std::uint64_t end) const;

    const CostModelParams &params() const { return params_; }
    const embedding::AccessCdf &cdf() const { return *cdf_; }

  private:
    std::shared_ptr<const embedding::AccessCdf> cdf_;
    std::shared_ptr<const QpsModel> qps_;
    CostModelParams params_;
};

} // namespace erec::core
