#include "elasticrec/embedding/sharded_table.h"

#include <algorithm>
#include <cstring>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"

namespace erec::embedding {

namespace {

/** Charged by the gate around the shard-local gather loop. */
AllocRegion &
shardGatherRegion()
{
    static AllocRegion region("shard-gather");
    return region;
}

} // namespace

ShardedTable::ShardedTable(std::shared_ptr<const EmbeddingTable> table,
                           const std::vector<std::uint32_t> &sort_perm,
                           std::vector<std::uint64_t> boundaries)
    : table_(std::move(table)), sortPerm_(sort_perm.data(), sort_perm.size()),
      boundaries_(std::move(boundaries))
{
    ERC_CHECK(table_ != nullptr, "null backing table");
    ERC_CHECK(!boundaries_.empty(), "need at least one shard");
    ERC_CHECK(sortPerm_.empty() || sortPerm_.size() == table_->numRows(),
              "sort permutation must cover the whole table");
    std::uint64_t prev = 0;
    for (auto b : boundaries_) {
        ERC_CHECK(b > prev, "shard boundaries must be strictly increasing");
        prev = b;
    }
    ERC_CHECK(boundaries_.back() == table_->numRows(),
              "last boundary must equal the table row count");
}

ShardRange
ShardedTable::shardRange(std::uint32_t s) const
{
    ERC_CHECK(s < numShards(), "shard index out of range");
    const std::uint64_t begin = s == 0 ? 0 : boundaries_[s - 1];
    return {begin, boundaries_[s]};
}

Bytes
ShardedTable::shardBytes(std::uint32_t s) const
{
    return shardRange(s).rows() * table_->rowBytes();
}

std::uint32_t
ShardedTable::shardOfRank(std::uint64_t rank) const
{
    ERC_CHECK(rank < table_->numRows(), "rank out of range");
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), rank);
    return static_cast<std::uint32_t>(it - boundaries_.begin());
}

std::uint64_t
ShardedTable::localId(std::uint64_t rank) const
{
    const auto s = shardOfRank(rank);
    return rank - shardRange(s).begin;
}

std::uint32_t
ShardedTable::originalId(std::uint64_t rank) const
{
    ERC_CHECK(rank < table_->numRows(), "rank out of range");
    if (sortPerm_.empty())
        return static_cast<std::uint32_t>(rank);
    return sortPerm_[rank];
}

kernels::TableSlice
ShardedTable::shardSlice(std::uint32_t s) const
{
    const ShardRange range = shardRange(s);
    kernels::TableSlice slice = table_->wholeSlice();
    slice.rankBase = range.begin;
    slice.rankCount = range.rows();
    slice.remap = sortPerm_.empty() ? nullptr : sortPerm_.data();
    return slice;
}

std::size_t
ShardedTable::gatherPool(std::uint32_t s, const kernels::GatherRequest &req,
                         float *out,
                         const kernels::KernelBackend &backend) const
{
    const ShardRange range = shardRange(s);
    const std::uint32_t dim = table_->dim();
    ERC_CHECK(req.batch > 0, "gatherPool needs at least one batch item");
    const AllocGate gate(shardGatherRegion());
    if (table_->storage() == Storage::Materialized)
        return backend.gatherSumPool(shardSlice(s), req, out);
    // Virtual tables synthesize rows from the hash; rank resolution and
    // pooling stay scalar-side (see EmbeddingTable::gatherPool).
    for (std::size_t b = 0; b < req.batch; ++b) {
        const auto [begin, end] = kernels::detail::bagBounds(req, b);
        float *acc = out + b * dim;
        std::memset(acc, 0, dim * sizeof(float));
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t rank = range.begin + req.indices[i];
            ERC_CHECK(rank < range.end,
                      "local gather index escapes the shard");
            // Accumulate in place: same values, same lane order as the
            // old readRow-into-scratch path, with no row buffer.
            table_->addRowTo(originalId(rank), acc);
        }
    }
    return req.numIndices;
}

} // namespace erec::embedding
