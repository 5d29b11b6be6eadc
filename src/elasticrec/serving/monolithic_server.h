#pragma once

/**
 * @file
 * Model-wise (monolithic) inference server: the baseline architecture
 * of Figure 2(a). The whole model lives in one container; queries run
 * the full DLRM forward locally with no bucketization or RPC.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/model/dlrm.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::serving {

class MonolithicServer
{
  public:
    /**
     * @param dlrm The model to serve whole.
     * @param backend Kernel backend gathers and GEMMs execute on; null
     *        selects the process-wide dispatched default. Only
     *        perfbench passes one, until ROADMAP item 2.
     */
    explicit MonolithicServer(std::shared_ptr<const model::Dlrm> dlrm,
                              const kernels::KernelBackend *backend =
                                  nullptr);

    /**
     * Serve one query (original-ID lookups) end to end. Thread-safe:
     * the model is immutable, so a QueryDispatcher may drive one
     * monolithic server from several executor workers.
     */
    ERC_HOT_PATH
    std::vector<float>
    serve(const std::vector<float> &dense_in,
          const std::vector<workload::SparseLookup> &lookups,
          std::size_t batch,
          const obs::TraceContext &ctx = {}) const;

    /** Serve a generated query using synthetic dense features. */
    ERC_HOT_PATH
    std::vector<float> serve(const workload::Query &query) const;

    /**
     * Attach a flight recorder: traced serve() calls record a single
     * `mono/forward` span under the caller's serve span. Not
     * thread-safe; attach before serving starts.
     */
    void attachRecorder(std::shared_ptr<obs::FlightRecorder> recorder);

    /** Memory footprint of this server's parameters. */
    Bytes memBytes() const;

    const model::Dlrm &model() const { return *dlrm_; }

    /** Queries served by this server (load accounting, like the
     *  dense frontend's counter). */
    std::uint64_t queriesServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<const model::Dlrm> dlrm_;
    std::shared_ptr<obs::FlightRecorder> recorder_;
    const kernels::KernelBackend *backend_;
    mutable std::atomic<std::uint64_t> served_{0};
};

} // namespace erec::serving
