#include "elasticrec/serving/dense_shard_server.h"

#include <functional>

#include "elasticrec/common/error.h"
#include "elasticrec/kernels/registry.h"

namespace erec::serving {

namespace {

/**
 * Reusable serve() buffers. Buckets and partial/merge buffers keep
 * their capacity across queries, so a warm serving thread's
 * bucketize/gather/merge machinery allocates nothing; only the
 * model-compute calls (runBottom, interactAndPredict) and the returned
 * prediction vector still own allocations. Table jobs that run on a
 * helper thread write into the *calling* thread's scratch, each into
 * its own table's buckets and (table, shard) slots.
 */
struct ServeScratch
{
    /** Per-table bucketized lookups. */
    std::vector<std::vector<workload::SparseLookup>> buckets;
    /** One pooled partial per (table, shard), at the table's shard
     *  offset + shard. */
    std::vector<std::vector<float>> parts;
    /** Per-table pooled embeddings. */
    std::vector<std::vector<float>> pooled;
    /** A serve() on this thread is using it. */
    bool busy = false;
};

thread_local ServeScratch t_scratch;

/**
 * Lends this thread's scratch to one serve() call. A serve() nested in
 * another on the same thread (a joining caller that runs a foreign
 * parallelFor index which serves a whole query) gets a call-local
 * arena instead of clobbering the outer call's buffers.
 */
class ScratchLease
{
  public:
    ScratchLease() : s_(t_scratch.busy ? &local_ : &t_scratch)
    {
        s_->busy = true;
    }
    ~ScratchLease() { s_->busy = false; }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    ServeScratch &get() { return *s_; }

  private:
    ServeScratch local_;
    ServeScratch *s_;
};

// Interned once at static-init time; hot-path records carry the ids.
const obs::NameId kMlpBottomName =
    obs::internSpanName("serving/mlp_bottom");
const obs::NameId kRpcGatherName = obs::internSpanName("rpc/gather");

/** Child slots under the serving/serve span: slot 0 = bottom MLP,
 *  slot 1 + the table's shard offset + shard = that shard's gather.
 *  Slots above the encoding's 254-child budget are not recorded (they
 *  would alias); real configurations stay far below it. */
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
    shardOffset_.assign(tables + 1, 0);
    for (std::uint32_t t = 0; t < tables; ++t)
        shardOffset_[t + 1] =
            shardOffset_[t] + static_cast<std::uint32_t>(shards_[t].size());
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

    // Arena-style per-thread scratch (refit to this model's table and
    // shard counts each call): allocation-free once warm.
    ScratchLease lease;
    ServeScratch &s = lease.get();
    std::vector<float> bottom;
    s.buckets.resize(config.numTables); // ERC_HOT_PATH_ALLOW("refit to table count; no-op for a warm thread")
    s.parts.resize(shardOffset_.back()); // ERC_HOT_PATH_ALLOW("refit to shard count; no-op for a warm thread")
    s.pooled.resize(config.numTables); // ERC_HOT_PATH_ALLOW("refit to table count; no-op for a warm thread")

    // Item 0 is the bottom MLP; item 1 + t is table t's job: bucketize
    // the table, then gather each non-empty shard into its (table,
    // shard) slot. Jobs touch disjoint buffers, so they run
    // concurrently on the executor (the bottom MLP overlapping the
    // gather RPCs, as in the real system), or in order without one.
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
        const auto t = static_cast<std::uint32_t>(i - 1);
        auto &buckets = s.buckets[t];
        bucketizers_[t].bucketizeInto(lookups[t], &buckets);
        for (std::uint32_t sh = 0; sh < buckets.size(); ++sh) {
            if (buckets[sh].indices.empty())
                continue;
            const std::uint32_t slot = shardOffset_[t] + sh;
            const bool span = traced && slot < kMaxGatherSlots;
            const obs::TraceContext rpc =
                span ? ctx.child(1 + slot) : obs::TraceContext{};
            const std::int64_t t0 = span ? recorder_->nowUs() : 0;
            shards_[t][sh]->gatherInto(buckets[sh], &s.parts[slot], rpc);
            if (span)
                recorder_->recordSpan(rpc, kRpcGatherName, t0,
                                      recorder_->nowUs(), gatherArg(t, sh));
        }
    };
    if (executor_ != nullptr) {
        // std::cref: the std::function parameter wraps a reference
        // instead of heap-copying the closure.
        executor_->parallelFor(config.numTables + 1, std::cref(body));
    } else {
        for (std::size_t i = 0; i <= config.numTables; ++i)
            body(i);
    }

    // Sum pooling distributes over the shard partition: merge the
    // non-empty partials in (table, shard) order, so the
    // floating-point accumulation order is the same under any worker
    // count.
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        auto &dst = s.pooled[t];
        dst.assign(batch * dim, 0.0f);
        for (std::uint32_t sh = 0; sh < s.buckets[t].size(); ++sh) {
            if (s.buckets[t][sh].indices.empty())
                continue;
            const auto &part = s.parts[shardOffset_[t] + sh];
            for (std::size_t i = 0; i < dst.size(); ++i)
                dst[i] += part[i];
        }
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
