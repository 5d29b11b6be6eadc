#pragma once

/**
 * @file
 * Inference query modeling.
 *
 * A query carries a batch of items to rank for one user (batch size 32
 * following the paper's query model, Section V-C). For every embedding
 * table it carries an index array and an offset array in exactly the
 * layout of the paper's Figure 11: offsets[i] is the position within the
 * index array where batch item i's lookups begin.
 */

#include <cstdint>
#include <vector>

#include "elasticrec/common/rng.h"
#include "elasticrec/common/units.h"
#include "elasticrec/obs/trace_context.h"
#include "elasticrec/kernels/kernel_backend.h"
#include "elasticrec/workload/access_distribution.h"

namespace erec::workload {

/** Index/offset arrays addressing one embedding table (Figure 11). */
struct SparseLookup
{
    /** Embedding row IDs to gather, grouped by batch item. */
    std::vector<std::uint32_t> indices;
    /** Start position of each batch item's IDs within `indices`. */
    std::vector<std::uint32_t> offsets;

    /** Number of batch items encoded. */
    std::size_t batchSize() const { return offsets.size(); }

    /**
     * Raw kernel-layer view of this lookup, valid while the vectors
     * are alive and unmodified — what gatherPool consumes.
     */
    kernels::GatherRequest view() const
    {
        return kernels::GatherRequest(indices, offsets);
    }
};

/** One inference request. */
struct Query
{
    std::uint64_t id = 0;
    SimTime arrival = 0;
    std::uint32_t batchSize = 0;
    /** Causal trace context stamped by the sampling dispatcher and
     *  propagated through queues and shard-server calls — the moral
     *  equivalent of a traceparent header on the request. Unsampled
     *  queries carry the zero context and record nothing. */
    obs::TraceContext trace;
    /** One lookup set per embedding table. */
    std::vector<SparseLookup> lookups;
};

/** Static query-shape parameters. */
struct QueryShape
{
    std::uint32_t batchSize = 32;
    std::uint32_t numTables = 10;
    /** Embedding gathers per batch item per table (pooling factor). */
    std::uint32_t gathersPerItem = 128;
};

/**
 * Generates queries whose table lookups follow per-table access
 * distributions.
 *
 * Distributions produce hotness *ranks*, and the emitted IDs are those
 * ranks: they are already in sorted-hotness space (Figure 8(b)). A
 * caller that models an unsorted production table (Figure 8(a)) maps
 * each rank through the inverse of the hotness sort permutation itself.
 */
class QueryGenerator
{
  public:
    /**
     * @param shape Query shape (batch size, tables, pooling factor).
     * @param dists One access distribution per table (size must equal
     *              shape.numTables); all tables may share one pointer.
     * @param seed  Seed for this generator's private RNG stream.
     */
    QueryGenerator(QueryShape shape,
                   std::vector<AccessDistributionPtr> dists,
                   std::uint64_t seed = 1);

    /** Convenience: all tables share one distribution. */
    QueryGenerator(QueryShape shape, AccessDistributionPtr dist,
                   std::uint64_t seed = 1);

    /** Generate the next query, stamped with the given arrival time. */
    Query next(SimTime arrival = 0);

  private:
    QueryShape shape_;
    std::vector<AccessDistributionPtr> dists_;
    Rng rng_;
    std::uint64_t nextId_ = 0;
};

} // namespace erec::workload
