#include "elasticrec/model/mlp.h"

#include <cmath>
#include <sstream>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"

namespace erec::model {

std::uint64_t
MlpSpec::flopsPerItem() const
{
    std::uint64_t flops = 0;
    for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
        flops += 2ull * widths[l] * widths[l + 1];
    }
    return flops;
}

Bytes
MlpSpec::paramBytes() const
{
    Bytes params = 0;
    for (std::size_t l = 0; l + 1 < widths.size(); ++l)
        params += Bytes{widths[l]} * widths[l + 1] + widths[l + 1];
    return params * sizeof(float);
}

std::string
MlpSpec::toString() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        if (i)
            oss << '-';
        oss << widths[i];
    }
    return oss.str();
}

Mlp::Mlp(MlpSpec spec, std::uint64_t seed) : spec_(std::move(spec))
{
    ERC_CHECK(spec_.widths.size() >= 2,
              "an MLP needs an input width and at least one layer");
    for (auto w : spec_.widths)
        ERC_CHECK(w > 0, "layer widths must be positive");
    Rng rng(seed);
    weights_.resize(spec_.numLayers());
    biases_.resize(spec_.numLayers());
    for (std::size_t l = 0; l < spec_.numLayers(); ++l) {
        const std::size_t fan_in = spec_.widths[l];
        const std::size_t fan_out = spec_.widths[l + 1];
        // Xavier-uniform initialization.
        const double bound =
            std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
        weights_[l].resize(fan_in * fan_out);
        for (auto &w : weights_[l])
            w = static_cast<float>(rng.uniform(-bound, bound));
        biases_[l].assign(fan_out, 0.0f);
    }
}

void
Mlp::forward(const float *in, std::size_t batch, float *out,
             const kernels::KernelBackend &backend) const
{
    const auto &widths = spec_.widths;
    const std::size_t layers = spec_.numLayers();
    // Layer 0 reads `in` and the last layer writes `out`; hidden
    // activations alternate between two per-thread scratch buffers.
    // A buffer is only assigned while it is smaller than the layer it
    // must hold, so warm forward passes neither allocate nor fill it.
    // Safe because forward() never calls itself.
    static thread_local std::vector<float> scratch[2];
    const float *x = in;
    for (std::size_t l = 0; l < layers; ++l) {
        const std::size_t fan_out = widths[l + 1];
        const bool last = (l + 1 == layers);
        float *y = out;
        if (!last) {
            auto &buf = scratch[l % 2];
            if (buf.size() < batch * fan_out)
                buf.assign(batch * fan_out, 0.0f);
            y = buf.data();
        }
        backend.gemmBiasAct(x, weights_[l].data(), biases_[l].data(), batch,
                            widths[l], fan_out, /*relu=*/!last, y);
        x = y;
    }
}

} // namespace erec::model
