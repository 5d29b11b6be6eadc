#include "elasticrec/serving/dense_shard_server.h"

#include <functional>

#include "elasticrec/common/error.h"
#include "elasticrec/kernels/registry.h"

namespace erec::serving {

namespace {

/** One gather fan-out unit: (table, shard). */
struct GatherJob
{
    std::uint32_t table;
    std::uint32_t shard;
};

/**
 * Per-thread reusable serve() buffers. Buckets, jobs and partial-merge
 * buffers keep their capacity across queries, so a warm serving
 * thread's bucketize/gather/merge machinery allocates nothing; only
 * the model-compute calls (runBottom, interactAndPredict) and the
 * returned prediction vector still own allocations.
 */
struct ServeScratch
{
    /** Per-table bucketized lookups. */
    std::vector<std::vector<workload::SparseLookup>> buckets;
    std::vector<GatherJob> jobs;
    /** One pooled partial per gather job. */
    std::vector<std::vector<float>> parts;
    /** Per-table pooled embeddings. */
    std::vector<std::vector<float>> pooled;
};

thread_local ServeScratch t_scratch;

// Interned once at static-init time; hot-path records carry the ids.
const obs::NameId kMlpBottomName =
    obs::internSpanName("serving/mlp_bottom");
const obs::NameId kRpcGatherName = obs::internSpanName("rpc/gather");

/** Child slots under the serving/serve span: slot 0 = bottom MLP,
 *  slot 1+j = gather job j. Slots above the encoding's 254-child
 *  budget are not recorded (they would alias); real configurations
 *  stay far below it. */
constexpr unsigned kMlpBottomSlot = 0;
constexpr unsigned kMaxGatherSlots = 253;

constexpr std::uint64_t
gatherArg(std::uint32_t table, std::uint32_t shard)
{
    return (static_cast<std::uint64_t>(table) << 16) | shard;
}

} // namespace

DenseShardServer::DenseShardServer(
    std::shared_ptr<const model::Dlrm> dlrm,
    std::vector<core::Bucketizer> bucketizers,
    std::vector<std::vector<std::shared_ptr<SparseShardServer>>> shards,
    const kernels::KernelBackend *backend)
    : dlrm_(std::move(dlrm)), bucketizers_(std::move(bucketizers)),
      shards_(std::move(shards)),
      backend_(backend != nullptr ? backend : &kernels::defaultBackend())
{
    ERC_CHECK(dlrm_ != nullptr, "null model");
    const auto tables = dlrm_->config().numTables;
    ERC_CHECK(bucketizers_.size() == tables,
              "need one bucketizer per table");
    ERC_CHECK(shards_.size() == tables,
              "need one shard list per table");
    for (std::uint32_t t = 0; t < tables; ++t) {
        ERC_CHECK(shards_[t].size() == bucketizers_[t].numShards(),
                  "table " << t << ": shard server count ("
                           << shards_[t].size()
                           << ") must match bucketizer shards ("
                           << bucketizers_[t].numShards() << ")");
        for (const auto &s : shards_[t])
            ERC_CHECK(s != nullptr, "null shard server for table " << t);
    }
}

void
DenseShardServer::attachExecutor(
    std::shared_ptr<runtime::Executor> executor)
{
    executor_ = std::move(executor);
}

void
DenseShardServer::attachRecorder(
    std::shared_ptr<obs::FlightRecorder> recorder)
{
    recorder_ = std::move(recorder);
}

std::vector<float>
DenseShardServer::serve(const std::vector<float> &dense_in,
                        const std::vector<workload::SparseLookup> &lookups,
                        std::size_t batch,
                        const obs::TraceContext &ctx) const
{
    const auto &config = dlrm_->config();
    ERC_CHECK(lookups.size() == config.numTables,
              "need one lookup set per table");
    const std::uint32_t dim = config.embeddingDim;
    served_.fetch_add(1, std::memory_order_relaxed);
    const bool traced = recorder_ != nullptr && ctx.sampled();

    // Arena-style per-thread scratch (refit to this model's table
    // count each call): allocation-free once warm.
    ServeScratch &s = t_scratch;
    std::vector<float> bottom;
    s.pooled.resize(config.numTables); // ERC_HOT_PATH_ALLOW("refit to table count; no-op for a warm thread")

    // Bucketize sequentially (cheap and deterministic) and enumerate
    // every non-empty (table, shard) gather as a job.
    s.buckets.resize(config.numTables); // ERC_HOT_PATH_ALLOW("refit to table count; no-op for a warm thread")
    s.jobs.clear();
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        bucketizers_[t].bucketizeInto(lookups[t], &s.buckets[t]);
        for (std::uint32_t sh = 0; sh < s.buckets[t].size(); ++sh)
            if (!s.buckets[t][sh].indices.empty())
                s.jobs.push_back({t, sh}); // ERC_HOT_PATH_ALLOW("bounded by total shard count; capacity reused across queries")
    }
    s.parts.resize(s.jobs.size()); // ERC_HOT_PATH_ALLOW("refit to job count; no-op for a warm thread")

    // Item 0 is the bottom MLP, item 1 + j is gather job j (its span
    // takes child slot 1 + j). The bottom MLP overlaps the gather RPCs
    // in the real system; here the items run concurrently on the
    // executor, or in order without one.
    const auto body = [&](std::size_t i) {
        if (i == 0) {
            const std::int64_t t0 = traced ? recorder_->nowUs() : 0;
            bottom = dlrm_->runBottom(dense_in, batch, *backend_);
            if (traced)
                recorder_->recordSpan(ctx.child(kMlpBottomSlot),
                                      kMlpBottomName, t0,
                                      recorder_->nowUs());
            return;
        }
        const GatherJob &job = s.jobs[i - 1];
        const bool span = traced && i - 1 < kMaxGatherSlots;
        const obs::TraceContext rpc =
            span ? ctx.child(1 + static_cast<unsigned>(i - 1))
                 : obs::TraceContext{};
        const std::int64_t t0 = span ? recorder_->nowUs() : 0;
        shards_[job.table][job.shard]->gatherInto(
            s.buckets[job.table][job.shard], &s.parts[i - 1], rpc);
        if (span)
            recorder_->recordSpan(rpc, kRpcGatherName, t0,
                                  recorder_->nowUs(),
                                  gatherArg(job.table, job.shard));
    };
    if (executor_ != nullptr) {
        // std::cref: the std::function parameter wraps a reference
        // instead of heap-copying the closure.
        executor_->parallelFor(s.jobs.size() + 1, std::cref(body));
    } else {
        for (std::size_t i = 0; i <= s.jobs.size(); ++i)
            body(i);
    }

    // Sum pooling distributes over the shard partition: merge the
    // partials in job (table, shard) order, so the floating-point
    // accumulation order is the same under any worker count.
    for (std::uint32_t t = 0; t < config.numTables; ++t)
        s.pooled[t].assign(batch * dim, 0.0f);
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
        auto &dst = s.pooled[s.jobs[j].table];
        for (std::size_t i = 0; i < dst.size(); ++i)
            dst[i] += s.parts[j][i];
    }

    // Feature interaction + top MLP + sigmoid.
    return dlrm_->interactAndPredict(bottom, s.pooled, batch, *backend_);
}

std::vector<float>
DenseShardServer::serve(const workload::Query &query) const
{
    const auto dense_in =
        dlrm_->syntheticDenseInput(query.id, query.batchSize);
    return serve(dense_in, query.lookups, query.batchSize, query.trace);
}

} // namespace erec::serving
