#pragma once

/**
 * @file
 * Multi-layer perceptron: the dense compute block of a DLRM model.
 *
 * MlpSpec captures the layer widths the paper's Table I/II list (e.g.
 * bottom MLP "256-128-32" = widths {256, 128, 32}: a 256-wide input
 * followed by two weight layers). Mlp materializes real float weights
 * and runs an actual forward pass (GEMM + ReLU on a pluggable kernel
 * backend), used by unit tests, the examples and kernel-level
 * calibration; the analytic FLOP / byte accounting drives the hardware
 * latency model.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/units.h"
#include "elasticrec/kernels/kernel_backend.h"
#include "elasticrec/kernels/registry.h"

namespace erec::model {

/** Layer-width description of an MLP. */
struct MlpSpec
{
    /** Widths including the input width, e.g. {256, 128, 32}. */
    std::vector<std::uint32_t> widths;

    std::uint32_t inputDim() const { return widths.front(); }
    std::uint32_t outputDim() const { return widths.back(); }
    std::size_t numLayers() const { return widths.size() - 1; }

    /** Multiply-accumulate FLOPs for one sample's forward pass. */
    std::uint64_t flopsPerItem() const;

    /** Parameter bytes (weights + biases, fp32). */
    Bytes paramBytes() const;

    /** "256-128-32"-style rendering. */
    std::string toString() const;
};

/** A real MLP with ReLU hidden activations and a linear output layer. */
class Mlp
{
  public:
    explicit Mlp(MlpSpec spec, std::uint64_t seed = 123);

    const MlpSpec &spec() const { return spec_; }

    /**
     * Forward one batch on the given kernel backend (default: the
     * process-wide dispatched one). `in` is batch x inputDim, `out` is
     * batch x outputDim, and the two must not overlap: the first layer
     * reads `in` and the last writes `out` in place. Hidden layers use
     * per-thread activation scratch: allocation-free once a thread's
     * buffers reached the steady working-set size.
     */
    ERC_HOT_PATH
    void forward(const float *in, std::size_t batch, float *out,
                 const kernels::KernelBackend &backend =
                     kernels::defaultBackend()) const;

  private:
    MlpSpec spec_;
    /** weights_[l] is widths[l] x widths[l+1], row-major by input. */
    std::vector<std::vector<float>> weights_;
    std::vector<std::vector<float>> biases_;
};

} // namespace erec::model
