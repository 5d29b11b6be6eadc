#include "elasticrec/core/qps_model.h"

#include <algorithm>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::core {

double
qpsForStageTime(SimTime stage_time)
{
    return 1.0 / units::toSeconds(std::max<SimTime>(stage_time, 1));
}

SimTime
stageTimeForQps(double qps)
{
    return units::fromSeconds(1.0 / qps);
}

QpsModel::QpsModel(std::vector<ProfilePoint> points)
    : points_(std::move(points))
{
    ERC_CHECK(points_.size() >= 2, "need at least two profile points");
    for (std::size_t i = 0; i < points_.size(); ++i) {
        ERC_CHECK(points_[i].gathers > 0 && points_[i].qps > 0,
                  "profile points must be positive");
        if (i > 0)
            ERC_CHECK(points_[i].gathers > points_[i - 1].gathers,
                      "profile gather counts must be strictly increasing");
    }
}

QpsModel
QpsModel::profile(const hw::LatencyModel &lat, Bytes row_bytes,
                  std::uint32_t cores, std::uint64_t max_gathers,
                  SimTime service_overhead)
{
    ERC_CHECK(max_gathers >= 2, "profile sweep needs a range");
    std::vector<ProfilePoint> pts;
    std::uint64_t prev = 0;
    for (double x = 1.0; ; x *= 1.6) {
        auto g = static_cast<std::uint64_t>(x);
        g = std::min(g, max_gathers);
        if (g == prev) {
            if (g == max_gathers)
                break;
            continue;
        }
        prev = g;
        pts.push_back({static_cast<double>(g),
                       qpsForStageTime(lat.gatherCpuTime(g, row_bytes,
                                                         cores) +
                                       service_overhead)});
        if (g == max_gathers)
            break;
    }
    return QpsModel(std::move(pts));
}

double
QpsModel::qps(double gathers) const
{
    const double x = std::max(gathers, points_.front().gathers);
    if (x >= points_.back().gathers) {
        // Extrapolate beyond the profiled range with the last segment's
        // log-log slope.
        const auto &a = points_[points_.size() - 2];
        const auto &b = points_.back();
        const double slope = std::log(b.qps / a.qps) /
                             std::log(b.gathers / a.gathers);
        return b.qps * std::pow(x / b.gathers, slope);
    }
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), x,
        [](const ProfilePoint &p, double g) { return p.gathers < g; });
    const auto hi = (it == points_.begin()) ? it + 1 : it;
    const auto lo = hi - 1;
    const double frac = std::log(x / lo->gathers) /
                        std::log(hi->gathers / lo->gathers);
    return lo->qps * std::pow(hi->qps / lo->qps, frac);
}

} // namespace erec::core
