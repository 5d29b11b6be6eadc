#include "elasticrec/workload/query_generator.h"

#include "elasticrec/common/error.h"

namespace erec::workload {

QueryGenerator::QueryGenerator(QueryShape shape,
                               std::vector<AccessDistributionPtr> dists,
                               std::uint64_t seed)
    : shape_(shape), dists_(std::move(dists)), rng_(seed)
{
    ERC_CHECK(shape_.batchSize > 0, "batch size must be positive");
    ERC_CHECK(shape_.numTables > 0, "need at least one table");
    ERC_CHECK(dists_.size() == shape_.numTables,
              "need one distribution per table (got "
                  << dists_.size() << ", want " << shape_.numTables << ")");
    for (const auto &d : dists_)
        ERC_CHECK(d != nullptr, "null access distribution");
}

QueryGenerator::QueryGenerator(QueryShape shape, AccessDistributionPtr dist,
                               std::uint64_t seed)
    : QueryGenerator(shape,
                     std::vector<AccessDistributionPtr>(shape.numTables,
                                                        std::move(dist)),
                     seed)
{
}

// ERC_HOT_PATH_ALLOW("workload generation: shares the `next` base name with Rng's PRNG step, but runs in the driver ahead of submit(), not on the serving path")
Query
QueryGenerator::next(SimTime arrival)
{
    Query q;
    q.id = nextId_++;
    q.arrival = arrival;
    q.batchSize = shape_.batchSize;
    q.lookups.resize(shape_.numTables);

    for (std::uint32_t t = 0; t < shape_.numTables; ++t) {
        auto &lookup = q.lookups[t];
        const auto &dist = *dists_[t];
        const std::size_t total =
            static_cast<std::size_t>(shape_.batchSize) *
            shape_.gathersPerItem;
        lookup.indices.reserve(total);
        lookup.offsets.reserve(shape_.batchSize);
        for (std::uint32_t b = 0; b < shape_.batchSize; ++b) {
            lookup.offsets.push_back(
                static_cast<std::uint32_t>(lookup.indices.size()));
            for (std::uint32_t g = 0; g < shape_.gathersPerItem; ++g) {
                lookup.indices.push_back(
                    static_cast<std::uint32_t>(dist.sampleRank(rng_)));
            }
        }
    }
    return q;
}

} // namespace erec::workload
