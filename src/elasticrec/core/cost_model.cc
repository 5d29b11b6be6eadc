#include "elasticrec/core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::core {

double
replicasFor(double target_qps, double qps_per_replica)
{
    return std::max(1.0, std::ceil(target_qps / qps_per_replica));
}

CostModel::CostModel(std::shared_ptr<const embedding::AccessCdf> cdf,
                     std::shared_ptr<const QpsModel> qps,
                     CostModelParams params)
    : cdf_(std::move(cdf)), qps_(std::move(qps)), params_(params)
{
    ERC_CHECK(cdf_ != nullptr, "null access CDF");
    ERC_CHECK(qps_ != nullptr, "null QPS model");
    ERC_CHECK(params_.targetTraffic > 0, "target traffic must be positive");
    ERC_CHECK(params_.gathersPerQuery > 0, "n_t must be positive");
    ERC_CHECK(params_.rowBytes > 0, "row bytes must be positive");
}

double
CostModel::shardGathers(std::uint64_t begin, std::uint64_t end) const
{
    ERC_CHECK(begin < end && end <= cdf_->numRows(),
              "invalid shard range [" << begin << ", " << end << ")");
    const double probability = cdf_->massOfRange(begin, end);
    return probability * params_.gathersPerQuery;
}

double
CostModel::shardQps(std::uint64_t begin, std::uint64_t end) const
{
    return qps_->qps(shardGathers(begin, end));
}

double
CostModel::replicas(std::uint64_t begin, std::uint64_t end) const
{
    return replicasFor(params_.targetTraffic, shardQps(begin, end));
}

Bytes
CostModel::capacity(std::uint64_t begin, std::uint64_t end) const
{
    ERC_CHECK(begin < end && end <= cdf_->numRows(),
              "invalid shard range [" << begin << ", " << end << ")");
    return (end - begin) * params_.rowBytes;
}

Bytes
CostModel::replicaBytes(std::uint64_t begin, std::uint64_t end) const
{
    return capacity(begin, end) + params_.minMemAlloc;
}

double
CostModel::cost(std::uint64_t begin, std::uint64_t end) const
{
    return replicas(begin, end) *
           static_cast<double>(replicaBytes(begin, end));
}

} // namespace erec::core
