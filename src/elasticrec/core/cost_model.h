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
 * 1-based IDs k..j; COST(k, j) == cost(k-1, j)). The planner sizes
 * each deployed sparse shard with the CostModel the DP priced it with.
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
};

/**
 * Replicas one shard needs to sustain target_qps when each replica
 * serves qps_per_replica: ceil(target / QPS), floored at one
 * (deployment semantics). Algorithm 1 uses fractional replicas; the
 * ceil makes plans account for the at-least-one-replica cost of cold
 * shards.
 */
double replicasFor(double target_qps, double qps_per_replica);

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

    /** REPLICAS(begin, end): replicasFor(targetTraffic, shardQps). */
    double replicas(std::uint64_t begin, std::uint64_t end) const;

    /** CAPACITY(begin, end): shard embedding bytes. */
    Bytes capacity(std::uint64_t begin, std::uint64_t end) const;

    /** One replica's memory request: CAPACITY + min_mem_alloc. */
    Bytes replicaBytes(std::uint64_t begin, std::uint64_t end) const;

    /** COST(begin, end): expected memory consumption in bytes. */
    double cost(std::uint64_t begin, std::uint64_t end) const;

  private:
    std::shared_ptr<const embedding::AccessCdf> cdf_;
    std::shared_ptr<const QpsModel> qps_;
    CostModelParams params_;
};

} // namespace erec::core
