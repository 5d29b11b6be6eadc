#pragma once

/**
 * @file
 * A hotness-sorted, partitioned view of an embedding table.
 *
 * The paper partitions each (sorted) table into shards covering
 * non-overlapping, consecutive sorted-ID ranges (Figure 8(b)); the shard
 * boundaries are the "partitioning points" produced by Algorithm 2. A
 * ShardedTable composes:
 *   - the backing EmbeddingTable (rows stored under original IDs),
 *   - the hotness sort permutation (sorted rank -> original ID),
 *   - the shard boundaries in sorted-rank space,
 * and provides shard-local gather, which is the data path a sparse
 * embedding shard microservice executes.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/huge_page_buffer.h"
#include "elasticrec/common/units.h"
#include "elasticrec/embedding/embedding_table.h"

namespace erec::embedding {

/** Half-open shard range in sorted-rank space. */
struct ShardRange
{
    std::uint64_t begin;
    std::uint64_t end;

    std::uint64_t rows() const { return end - begin; }
};

class ShardedTable
{
  public:
    /**
     * @param table Backing table (original ID order).
     * @param sort_perm Hotness permutation: sort_perm[rank] = original
     *        ID. Pass an empty vector when the table is already stored
     *        in hotness order. Copied into huge-page storage.
     * @param boundaries Exclusive end rank of each shard, strictly
     *        increasing, last element must equal table->numRows().
     */
    ShardedTable(std::shared_ptr<const EmbeddingTable> table,
                 const std::vector<std::uint32_t> &sort_perm,
                 std::vector<std::uint64_t> boundaries);

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(boundaries_.size());
    }

    const EmbeddingTable &table() const { return *table_; }

    /** Rank range of shard s. */
    ShardRange shardRange(std::uint32_t s) const;

    /** Logical bytes of shard s (rows x rowBytes). */
    Bytes shardBytes(std::uint32_t s) const;

    /** Which shard a sorted rank falls into. */
    std::uint32_t shardOfRank(std::uint64_t rank) const;

    /** Shard-local ID of a sorted rank. */
    std::uint64_t localId(std::uint64_t rank) const;

    /** Original table ID of a sorted rank. */
    std::uint32_t originalId(std::uint64_t rank) const;

    /**
     * Execute a gather+pool on shard s with *shard-local* IDs (the
     * output of the bucketizer) carried in the request view. Output
     * layout matches EmbeddingTable::gatherPool. Materialized tables
     * run on the given kernel backend over a shard-bounded TableSlice
     * (rankBase = shard begin, remap = hotness permutation).
     */
    ERC_HOT_PATH
    std::size_t gatherPool(std::uint32_t s,
                           const kernels::GatherRequest &req, float *out,
                           const kernels::KernelBackend &backend =
                               kernels::defaultBackend()) const;

    /** Kernel-layer view of shard s (materialized tables only). */
    kernels::TableSlice shardSlice(std::uint32_t s) const;

    const std::vector<std::uint64_t> &boundaries() const
    {
        return boundaries_;
    }

  private:
    std::shared_ptr<const EmbeddingTable> table_;
    HugePageBuffer<std::uint32_t> sortPerm_;
    std::vector<std::uint64_t> boundaries_;
};

} // namespace erec::embedding
