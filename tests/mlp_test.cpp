/**
 * @file
 * Tests for the MLP spec accounting and the real forward pass.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/model/mlp.h"

namespace erec::model {
namespace {

/** Single-sample forward through the one pointer-based entry point. */
std::vector<float>
forwardOne(const Mlp &m, const std::vector<float> &in)
{
    std::vector<float> out(m.spec().outputDim());
    m.forward(in.data(), 1, out.data());
    return out;
}

TEST(MlpSpecTest, FlopsAndParams)
{
    MlpSpec spec{{256, 128, 32}};
    EXPECT_EQ(spec.inputDim(), 256u);
    EXPECT_EQ(spec.outputDim(), 32u);
    EXPECT_EQ(spec.numLayers(), 2u);
    EXPECT_EQ(spec.flopsPerItem(), 2ull * (256 * 128 + 128 * 32));
    EXPECT_EQ(spec.paramBytes(),
              4ull * (256 * 128 + 128 + 128 * 32 + 32));
    EXPECT_EQ(spec.toString(), "256-128-32");
}

TEST(MlpTest, OutputShapeAndDeterminism)
{
    Mlp a(MlpSpec{{8, 4, 2}}, 5);
    Mlp b(MlpSpec{{8, 4, 2}}, 5);
    std::vector<float> in(8, 0.5f);
    EXPECT_EQ(forwardOne(a, in).size(), 2u);
    EXPECT_EQ(forwardOne(a, in), forwardOne(b, in));
    Mlp c(MlpSpec{{8, 4, 2}}, 6);
    EXPECT_NE(forwardOne(a, in), forwardOne(c, in));
}

TEST(MlpTest, LinearityOfSingleLayer)
{
    // A 1-layer MLP (output layer, no ReLU) is linear: f(2x) = 2 f(x)
    // when biases are zero (they are initialized to zero).
    Mlp m(MlpSpec{{4, 3}}, 11);
    std::vector<float> x = {0.1f, -0.2f, 0.3f, 0.4f};
    std::vector<float> x2 = {0.2f, -0.4f, 0.6f, 0.8f};
    const auto y = forwardOne(m, x);
    const auto y2 = forwardOne(m, x2);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y2[i], 2 * y[i], 1e-5);
}

TEST(MlpTest, HiddenReluClampsNegative)
{
    // With a large negative input and ReLU hidden layers, the hidden
    // activations saturate at zero, so doubling the input magnitude
    // cannot flip output signs through the hidden layer. Simply check
    // the forward pass produces finite outputs and zero input maps to
    // the bias path (zero, as biases are zero-initialized).
    Mlp m(MlpSpec{{4, 8, 2}}, 13);
    std::vector<float> zero(4, 0.0f);
    const auto y = forwardOne(m, zero);
    for (float v : y)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(MlpTest, BatchForwardMatchesPerItem)
{
    // A row's output must not depend on where it lands in the batch:
    // at batch 32 rows 0-29 sit in 6-row register tiles and rows 30-31
    // in 1-row tiles, while a single item always takes a 1-row tile.
    // The first layer spans two k-blocks of 256 and both layers end in
    // a partial column tile.
    constexpr std::size_t kBatch = 32, kIn = 260, kOut = 3;
    Mlp m(MlpSpec{{kIn, 70, kOut}}, 17);
    std::vector<float> batch_in(kBatch * kIn);
    for (std::size_t i = 0; i < batch_in.size(); ++i)
        batch_in[i] = 0.01f * static_cast<float>(i % 97) - 0.4f;
    for (const kernels::KernelBackend *backend :
         kernels::availableBackends()) {
        std::vector<float> batch_out(kBatch * kOut);
        m.forward(batch_in.data(), kBatch, batch_out.data(), *backend);
        for (std::size_t b = 0; b < kBatch; ++b) {
            float single[kOut];
            m.forward(&batch_in[b * kIn], 1, single, *backend);
            EXPECT_EQ(std::memcmp(&batch_out[b * kOut], single,
                                  sizeof(single)),
                      0)
                << backend->name() << " row " << b;
        }
    }
}

TEST(MlpTest, RejectsBadSpec)
{
    EXPECT_THROW(Mlp(MlpSpec{{8}}), ConfigError);
    EXPECT_THROW(Mlp(MlpSpec{{8, 0}}), ConfigError);
}

TEST(MlpSpecTest, PaperSpecsFlopOrdering)
{
    // Heavier MLPs (Table I) must have strictly more FLOPs.
    const MlpSpec light{{64, 32, 32}};
    const MlpSpec medium{{256, 128, 32}};
    const MlpSpec heavy{{512, 256, 32}};
    EXPECT_LT(light.flopsPerItem(), medium.flopsPerItem());
    EXPECT_LT(medium.flopsPerItem(), heavy.flopsPerItem());
}

} // namespace
} // namespace erec::model
