#pragma once

/**
 * @file
 * Query bucketization (Section IV-C, Figure 11).
 *
 * A query addresses the original, un-partitioned table through an index
 * array and an offset array. After partitioning, the dense shard must
 * split those arrays per embedding shard and rebase each shard's index
 * IDs to shard-local values (subtracting the sizes of the preceding
 * shards). Every shard keeps a full-batch offset array so the shard can
 * pool per batch item independently, exactly as in Figure 11(b).
 */

#include <cstdint>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/huge_page_buffer.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::core {

class Bucketizer
{
  public:
    /**
     * @param boundaries Exclusive end rank of each shard in
     *        hotness-sorted space (the partitioning points); the last
     *        entry is the table row count.
     * @param inverse_perm inverse_perm[originalId] = hotness rank.
     *        Pass empty when queries already carry sorted-space IDs.
     *        Copied into huge-page storage.
     */
    Bucketizer(std::vector<std::uint64_t> boundaries,
               const std::vector<std::uint32_t> &inverse_perm = {});

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(boundaries_.size());
    }

    /**
     * Split one table's lookup into per-shard lookups with shard-local
     * index IDs. The result always has numShards() entries; shards that
     * receive no gathers still carry a full-batch offset array with an
     * empty index array.
     */
    std::vector<workload::SparseLookup>
    bucketize(const workload::SparseLookup &in) const;

    /**
     * bucketize() into a caller-owned buffer whose per-shard index and
     * offset arrays keep their capacity across calls — the serving
     * path's variant, allocation-free once the buffers are warm.
     * Results are identical to bucketize().
     */
    ERC_HOT_PATH
    void bucketizeInto(const workload::SparseLookup &in,
                       std::vector<workload::SparseLookup> *out) const;

    /** Shard that will serve the given original index ID. The
     *  per-ID oracle bucketizer_test checks routing with. */
    std::uint32_t shardOf(std::uint32_t original_id) const;

    const std::vector<std::uint64_t> &boundaries() const
    {
        return boundaries_;
    }

  private:
    std::uint64_t rankOf(std::uint32_t original_id) const;

    std::vector<std::uint64_t> boundaries_;
    HugePageBuffer<std::uint32_t> inversePerm_;
};

} // namespace erec::core
