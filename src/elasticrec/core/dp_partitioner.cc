#include "elasticrec/core/dp_partitioner.h"

#include <algorithm>
#include <limits>

#include "elasticrec/common/error.h"

namespace erec::core {

namespace {

std::vector<std::uint64_t>
uniformCandidates(std::uint64_t num_rows, std::uint32_t granules)
{
    // num_rows == 0 is rejected by the constructor body; return a
    // placeholder so the mem-initializer stays well-defined.
    if (num_rows == 0 || granules == 0)
        return {num_rows};
    const std::uint64_t g =
        std::min<std::uint64_t>(granules, num_rows);
    const std::uint64_t per = (num_rows + g - 1) / g;
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t row = per; row < num_rows; row += per)
        candidates.push_back(row);
    candidates.push_back(num_rows);
    return candidates;
}

} // namespace

DpPartitioner::DpPartitioner(std::uint64_t num_rows, ShardCostFn cost,
                             Options options)
    : DpPartitioner(num_rows, std::move(cost),
                    uniformCandidates(num_rows, options.granules),
                    options.maxShards)
{
}

DpPartitioner::DpPartitioner(std::uint64_t num_rows, ShardCostFn cost)
    : DpPartitioner(num_rows, std::move(cost), Options{})
{
}

DpPartitioner::DpPartitioner(std::uint64_t num_rows, ShardCostFn cost,
                             std::vector<std::uint64_t> candidates,
                             std::uint32_t max_shards)
    : numRows_(num_rows), cost_(std::move(cost)),
      maxShards_(max_shards), candidates_(std::move(candidates))
{
    ERC_CHECK(num_rows > 0, "table needs at least one row");
    ERC_CHECK(cost_ != nullptr, "null cost function");
    ERC_CHECK(max_shards >= 1, "need at least one shard");
    ERC_CHECK(!candidates_.empty() && candidates_.back() == numRows_,
              "last candidate boundary must equal the row count");
    std::uint64_t prev = 0;
    for (auto c : candidates_) {
        ERC_CHECK(c > prev || (c == candidates_.front() && c > 0),
                  "candidates must be strictly increasing and positive");
        prev = c;
    }
    maxShards_ = std::min<std::uint32_t>(
        maxShards_, static_cast<std::uint32_t>(candidates_.size()));
}

void
DpPartitioner::runDp() const
{
    if (solved_)
        return;

    const auto g_count = static_cast<std::uint32_t>(candidates_.size());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();

    mem_.assign(maxShards_, std::vector<double>(g_count, kInf));
    parent_.assign(maxShards_,
                   std::vector<std::uint32_t>(g_count, kNoParent));

    // Row index where the shard beginning at candidate slot m starts:
    // slot 0 means row 0, slot m means candidates_[m - 1].
    auto begin_row = [&](std::uint32_t m) -> std::uint64_t {
        return m == 0 ? 0 : candidates_[m - 1];
    };

    // Initialization (Algorithm 2, lines 2-4): one shard covering the
    // first (g+1) candidate ranges.
    for (std::uint32_t g = 0; g < g_count; ++g) {
        mem_[0][g] = cost_(0, candidates_[g]);
        parent_[0][g] = 0;
    }

    // Recurrence (lines 5-19): the last shard spans candidate slots
    // [m+1, g]; the first s shards cover slots [0, m].
    for (std::uint32_t s = 1; s < maxShards_; ++s) {
        for (std::uint32_t g = s; g < g_count; ++g) {
            double best = kInf;
            std::uint32_t best_m = kNoParent;
            for (std::uint32_t m = s - 1; m < g; ++m) {
                const double prev_mem = mem_[s - 1][m];
                if (prev_mem == kInf)
                    continue;
                const double last_mem =
                    cost_(begin_row(m + 1), candidates_[g]);
                const double total = prev_mem + last_mem;
                if (total < best) {
                    best = total;
                    best_m = m;
                }
            }
            mem_[s][g] = best;
            parent_[s][g] = best_m;
        }
    }
    solved_ = true;
}

PartitionPlan
DpPartitioner::planWithShards(std::uint32_t num_shards) const
{
    ERC_CHECK(num_shards >= 1 && num_shards <= maxShards_,
              "shard count " << num_shards << " outside [1, "
                             << maxShards_ << "]");
    runDp();

    const auto g_last = static_cast<std::uint32_t>(candidates_.size() - 1);
    const std::uint32_t s = num_shards - 1;
    ERC_CHECK(mem_[s][g_last] !=
                  std::numeric_limits<double>::infinity(),
              "no feasible plan with " << num_shards << " shards");

    PartitionPlan plan;
    plan.cost = mem_[s][g_last];
    plan.boundaries.resize(num_shards);
    std::uint32_t g = g_last;
    for (std::uint32_t level = s; ; --level) {
        plan.boundaries[level] = candidates_[g];
        if (level == 0)
            break;
        g = parent_[level][g];
    }
    return plan;
}

PartitionPlan
DpPartitioner::findOptimalPlan() const
{
    runDp();
    const auto g_last = static_cast<std::uint32_t>(candidates_.size() - 1);
    std::uint32_t best_s = 0;
    for (std::uint32_t s = 1; s < maxShards_; ++s) {
        if (mem_[s][g_last] < mem_[best_s][g_last])
            best_s = s;
    }
    return planWithShards(best_s + 1);
}

} // namespace erec::core
