#include "elasticrec/serving/sparse_shard_server.h"

#include "elasticrec/common/error.h"
#include "elasticrec/kernels/registry.h"

namespace erec::serving {

namespace {

const obs::NameId kSparseGatherName =
    obs::internSpanName("sparse/gather");

} // namespace

SparseShardServer::SparseShardServer(
    std::shared_ptr<const embedding::ShardedTable> table,
    std::uint32_t shard_id, const kernels::KernelBackend *backend)
    : table_(std::move(table)), shardId_(shard_id),
      backend_(backend != nullptr ? backend : &kernels::defaultBackend())
{
    ERC_CHECK(table_ != nullptr, "null sharded table");
    ERC_CHECK(shard_id < table_->numShards(),
              "shard ID " << shard_id << " out of range");
}

embedding::ShardRange
SparseShardServer::range() const
{
    return table_->shardRange(shardId_);
}

Bytes
SparseShardServer::memBytes() const
{
    return table_->shardBytes(shardId_);
}

void
SparseShardServer::attachRecorder(
    std::shared_ptr<obs::FlightRecorder> recorder)
{
    recorder_ = std::move(recorder);
}

void
SparseShardServer::gatherInto(const workload::SparseLookup &local_lookup,
                              std::vector<float> *pooled,
                              const obs::TraceContext &ctx) const
{
    const std::size_t batch = local_lookup.batchSize();
    ERC_CHECK(batch > 0, "gather request must carry at least one item");
    const bool traced = recorder_ != nullptr && ctx.sampled();
    const std::int64_t start_us = traced ? recorder_->nowUs() : 0;
    // assign() reuses the caller's capacity; gatherPool overwrites the
    // zeroed buffer per batch item, exactly as the by-value path did.
    pooled->assign(batch * table_->table().dim(), 0.0f);
    rowsGathered_.fetch_add(
        table_->gatherPool(shardId_, local_lookup.view(), pooled->data(),
                           *backend_),
        std::memory_order_relaxed);
    if (traced)
        // Service span (slot 0 under the caller's rpc/gather span):
        // the shard-local work, as opposed to the caller-side RPC leg.
        recorder_->recordSpan(ctx.child(0), kSparseGatherName, start_us,
                              recorder_->nowUs(), shardId_);
}

} // namespace erec::serving
