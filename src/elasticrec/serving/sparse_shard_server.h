#pragma once

/**
 * @file
 * Sparse embedding shard microservice (Section IV-A): owns one
 * partitioned slice of a hotness-sorted embedding table and answers
 * gather requests carrying shard-local index IDs (the output of the
 * bucketizer). This is the functional (real data) execution path; the
 * cluster simulator separately charges its latency via the planner's
 * shard specs.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/embedding/sharded_table.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::serving {

class SparseShardServer
{
  public:
    /**
     * @param table The partitioned table this shard belongs to.
     * @param shard_id Which shard of the table this server owns.
     * @param backend Kernel backend gathers execute on; null selects
     *        the process-wide dispatched default.
     */
    SparseShardServer(std::shared_ptr<const embedding::ShardedTable> table,
                      std::uint32_t shard_id,
                      const kernels::KernelBackend *backend = nullptr);

    embedding::ShardRange range() const;
    Bytes memBytes() const;

    /**
     * Serve one gather request: shard-local indices + full-batch
     * offsets, writing one pooled vector per batch item into a
     * caller-owned buffer (resized to batch x dim floats), so a warm
     * caller pays no allocation. Thread-safe: the table is immutable
     * and the load counter is atomic, so executor workers may gather
     * from one shard concurrently.
     */
    ERC_HOT_PATH
    void gatherInto(const workload::SparseLookup &local_lookup,
                    std::vector<float> *pooled,
                    const obs::TraceContext &ctx = {}) const;

    /**
     * Attach a flight recorder: traced gather calls (sampled ctx)
     * record a `sparse/gather` service span under the caller's RPC
     * span, tagged with this shard's id. Not thread-safe; attach
     * before serving starts.
     */
    void attachRecorder(std::shared_ptr<obs::FlightRecorder> recorder);

    /** Total rows gathered by this server so far (load accounting). */
    std::uint64_t rowsGathered() const
    {
        return rowsGathered_.load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<const embedding::ShardedTable> table_;
    std::uint32_t shardId_;
    const kernels::KernelBackend *backend_;
    std::shared_ptr<obs::FlightRecorder> recorder_;
    mutable std::atomic<std::uint64_t> rowsGathered_{0};
};

} // namespace erec::serving
