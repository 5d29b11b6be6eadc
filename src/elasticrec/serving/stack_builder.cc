#include "elasticrec/serving/stack_builder.h"

#include "elasticrec/common/error.h"
#include "elasticrec/embedding/frequency_tracker.h"
#include "elasticrec/kernels/registry.h"

namespace erec::serving {

namespace {

obs::Labels
shardLabels(std::uint32_t table, std::uint32_t shard)
{
    return {{"table", "table-" + std::to_string(table)},
            {"shard", "shard-" + std::to_string(shard)}};
}

} // namespace

std::future<std::vector<float>>
ElasticRecStack::submit(workload::Query query) const
{
    ERC_CHECK(dispatcher != nullptr,
              "stack has no dispatcher; build it with "
              "StackOptions::executor set");
    return dispatcher->submit(std::move(query));
}

void
ElasticRecStack::publishStats() const
{
    if (observability == nullptr)
        return;
    observability
        ->gauge("erec_frontend_queries_served",
                "Queries served end to end by the functional frontend.")
        .set(static_cast<double>(frontend->queriesServed()));
    if (executor != nullptr)
        executor->publishStats(*observability);
    if (dispatcher != nullptr)
        dispatcher->publishStats(*observability);
    for (std::uint32_t t = 0; t < shards.size(); ++t) {
        for (std::uint32_t s = 0; s < shards[t].size(); ++s) {
            observability
                ->gauge("erec_shard_rows_gathered",
                        "Rows gathered by one sparse shard server.",
                        shardLabels(t, s))
                .set(static_cast<double>(shards[t][s]->rowsGathered()));
        }
    }
}

ElasticRecStack
buildElasticRecStack(std::shared_ptr<const model::Dlrm> dlrm,
                     std::vector<TablePlan> plans, StackOptions options)
{
    ERC_CHECK(dlrm != nullptr, "null model");
    const std::uint32_t tables = dlrm->config().numTables;
    ERC_CHECK(plans.size() == 1 || plans.size() == tables,
              "pass one TablePlan or one per table");

    auto plan_for = [&](std::uint32_t t) -> const TablePlan & {
        return plans.size() == 1 ? plans[0] : plans[t];
    };

    ElasticRecStack stack;
    stack.observability = options.observability;
    if (options.traceSampleEvery > 0) {
        obs::FlightRecorderOptions ropts;
        ropts.sampleEvery = options.traceSampleEvery;
        ropts.ringCapacity = options.traceRingCapacity;
        stack.recorder = std::make_shared<obs::FlightRecorder>(ropts);
    }
    // One backend handle serves the whole stack: every sparse shard's
    // gathers and the frontend's GEMMs run on the process default.
    stack.kernelBackend = &kernels::defaultBackend();
    std::vector<core::Bucketizer> bucketizers;
    for (std::uint32_t t = 0; t < tables; ++t) {
        const TablePlan &plan = plan_for(t);
        auto sharded = std::make_shared<embedding::ShardedTable>(
            dlrm->table(t), plan.sortPerm, plan.boundaries);
        stack.tables.push_back(sharded);

        std::vector<std::uint32_t> inv;
        if (!plan.sortPerm.empty())
            inv = embedding::FrequencyTracker::invertPermutation(
                plan.sortPerm);
        bucketizers.emplace_back(plan.boundaries, std::move(inv));

        std::vector<std::shared_ptr<SparseShardServer>> servers;
        for (std::uint32_t s = 0; s < sharded->numShards(); ++s) {
            auto server = std::make_shared<SparseShardServer>(
                sharded, s, stack.kernelBackend);
            if (stack.recorder != nullptr)
                server->attachRecorder(stack.recorder);
            if (options.observability != nullptr) {
                options.observability
                    ->gauge("erec_shard_rows",
                            "Rows owned by one sparse shard.",
                            shardLabels(t, s))
                    .set(static_cast<double>(server->range().rows()));
                options.observability
                    ->gauge("erec_shard_bytes",
                            "Parameter bytes owned by one sparse shard.",
                            shardLabels(t, s))
                    .set(static_cast<double>(server->memBytes()));
            }
            servers.push_back(std::move(server));
        }
        stack.shards.push_back(std::move(servers));
    }
    stack.frontend = std::make_shared<DenseShardServer>(
        dlrm, std::move(bucketizers), stack.shards, stack.kernelBackend);
    if (stack.recorder != nullptr)
        stack.frontend->attachRecorder(stack.recorder);
    if (options.executor != nullptr) {
        stack.executor = options.executor;
        stack.frontend->attachExecutor(stack.executor);
        auto frontend = stack.frontend;
        stack.dispatcher = std::make_shared<QueryDispatcher>(
            [frontend](const workload::Query &q) {
                return frontend->serve(q);
            },
            stack.executor, stack.recorder);
    }
    return stack;
}

} // namespace erec::serving
