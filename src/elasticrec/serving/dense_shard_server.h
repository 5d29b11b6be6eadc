#pragma once

/**
 * @file
 * Dense DNN shard microservice: the front-end of an ElasticRec
 * deployment (Section IV-A, "Life of an inference query").
 *
 * On each query it (1) runs the bottom MLP over the dense features,
 * (2) bucketizes the sparse index/offset arrays per embedding shard and
 * issues gather RPCs, (3) merges the shard responses (sum pooling is
 * additive across shards), and (4) runs feature interaction + top MLP
 * to produce click probabilities.
 *
 * This class implements the functional path with real floats and
 * in-process calls to SparseShardServer instances; the simulator models
 * the same flow's timing at cluster scale.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/core/bucketizer.h"
#include "elasticrec/model/dlrm.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/runtime/executor.h"
#include "elasticrec/serving/sparse_shard_server.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::serving {

class DenseShardServer
{
  public:
    /**
     * @param dlrm The model whose dense parts this shard runs.
     * @param bucketizers One per table, built from that table's
     *        partitioning points and inverse hotness permutation.
     * @param shards shards[t][s] serves table t's shard s.
     * @param backend Kernel backend the MLP GEMMs execute on; null
     *        selects the process-wide dispatched default. (Each sparse
     *        shard carries its own backend handle for gathers.)
     */
    DenseShardServer(
        std::shared_ptr<const model::Dlrm> dlrm,
        std::vector<core::Bucketizer> bucketizers,
        std::vector<std::vector<std::shared_ptr<SparseShardServer>>>
            shards,
        const kernels::KernelBackend *backend = nullptr);

    /**
     * Serve one query end to end.
     *
     * @param dense_in Batch x bottom-MLP-input dense features.
     * @param lookups Per-table index/offset arrays with *original*
     *        table IDs.
     * @param batch Number of items.
     * @return Click probability per item.
     */
    ERC_HOT_PATH
    std::vector<float>
    serve(const std::vector<float> &dense_in,
          const std::vector<workload::SparseLookup> &lookups,
          std::size_t batch,
          const obs::TraceContext &ctx = {}) const;

    /** Serve a generated query using synthetic dense features; the
     *  query's propagated TraceContext scopes any recorded spans. */
    ERC_HOT_PATH
    std::vector<float> serve(const workload::Query &query) const;

    /**
     * Run each query's bottom MLP and per-table jobs (bucketize one
     * table, then gather its non-empty shards) through the executor's
     * parallelFor (null detaches: the jobs run in order on the
     * caller). With a non-serial executor the jobs of one query run
     * concurrently on the serving thread plus any idle worker — even
     * when serve() itself runs on a dispatcher pump — but the
     * (table, shard) partials are merged in fixed order, so outputs
     * stay bit-identical to serial mode at any worker count.
     * serve() itself is thread-safe either way; attach/detach is not
     * and must happen before serving starts.
     */
    void attachExecutor(std::shared_ptr<runtime::Executor> executor);

    /**
     * Attach a flight recorder: traced serve() calls record the
     * bottom-MLP span (slot 0) and one `rpc/gather` span per non-empty
     * shard gather (slot 1 + the table's shard offset + shard) under
     * the caller's serve span, so span ids do not depend on which
     * thread ran a job. Not thread-safe; attach before serving.
     */
    void attachRecorder(std::shared_ptr<obs::FlightRecorder> recorder);

    const model::Dlrm &model() const { return *dlrm_; }

    /** Queries served end to end by this frontend (load accounting). */
    std::uint64_t queriesServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<const model::Dlrm> dlrm_;
    std::vector<core::Bucketizer> bucketizers_;
    std::vector<std::vector<std::shared_ptr<SparseShardServer>>> shards_;
    /** shardOffset_[t]: shards of tables before t; back() = total. */
    std::vector<std::uint32_t> shardOffset_;
    const kernels::KernelBackend *backend_;
    std::shared_ptr<runtime::Executor> executor_;
    std::shared_ptr<obs::FlightRecorder> recorder_;
    mutable std::atomic<std::uint64_t> served_{0};
};

} // namespace erec::serving
