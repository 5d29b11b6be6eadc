#pragma once

/**
 * @file
 * Profiling-based QPS regression model (Section IV-B, Figure 9).
 *
 * ElasticRec performs a one-time profiling of embedding gather
 * operations swept over the number of gathered vectors, records the
 * sustained QPS at each point, and fits a regression the cost model
 * evaluates as QPS(x) for fractional x (Algorithm 1, lines 10/13).
 *
 * The regression is piecewise log-log linear interpolation over the
 * profiled points, which reproduces the lookup-table-plus-regression
 * approach of the paper and is monotone whenever the profile is.
 */

#include <cstdint>
#include <vector>

#include "elasticrec/common/units.h"
#include "elasticrec/hw/latency_model.h"

namespace erec::core {

/** One profiled (gather count, sustained QPS) sample. */
struct ProfilePoint
{
    double gathers;
    double qps;
};

class QpsModel
{
  public:
    /** Fit from explicit profile points (gathers strictly increasing).
     *  Only tests call it so far: it is the entry point for ROADMAP
     *  item 7's measured gather profiles. */
    explicit QpsModel(std::vector<ProfilePoint> points);

    /**
     * One-time profiling pass against a hardware latency model: sweeps
     * gather counts geometrically from 1 to max_gathers and records the
     * QPS a container with `cores` cores sustains (Figure 9).
     *
     * @param lat Hardware latency model of the serving node.
     * @param row_bytes Bytes per embedding row (dim x 4).
     * @param cores Cores allocated to the profiled container.
     * @param max_gathers Largest gather count to profile.
     * @param service_overhead Fixed per-request service overhead added
     *        on top of the raw gather kernel (the microservice RPC
     *        path); pass 0 to profile the bare kernel.
     */
    static QpsModel profile(const hw::LatencyModel &lat, Bytes row_bytes,
                            std::uint32_t cores,
                            std::uint64_t max_gathers = 65536,
                            SimTime service_overhead = 0);

    /** Estimated QPS for gathering x vectors per query (x >= 0). */
    double qps(double gathers) const;

    /** Estimated per-query service latency at x gathers. */
    SimTime serviceTime(double gathers) const;

    const std::vector<ProfilePoint> &points() const { return points_; }

  private:
    std::vector<ProfilePoint> points_;
};

} // namespace erec::core
