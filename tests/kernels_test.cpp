/**
 * @file
 * Tests for the kernel-backend registry (src/elasticrec/kernels): the
 * cross-backend bit-identity contract — every SIMD backend must match
 * the scalar reference byte for byte, including ragged bags, empty
 * bags, duplicate indices, remapped (hotness-sorted) slices, requests
 * shorter than the prefetch distance, dims on both sides of the
 * single-pass limit and dims that are not a multiple of any vector
 * width; for the GEMM, shapes on every seam of the register tiles and
 * k-blocks and every layer shape the serving path runs — plus the
 * runtime dispatch rules (env selection, graceful ISA fallback,
 * rejection of unknown names).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/kernels/kernel_backend.h"
#include "elasticrec/kernels/registry.h"

namespace erec::kernels {
namespace {

/** Random row-major table storage in the embedding init range. */
std::vector<float>
randomRows(std::uint64_t rows, std::uint32_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> data(rows * dim);
    for (auto &v : data)
        v = static_cast<float>(rng.uniform(-0.05, 0.05));
    return data;
}

/** Ragged per-item bags: sizes cycle through `bag_sizes` (by default
 *  0, 1, 3, 17, 64, 5: empty bags, bags shorter than the prefetch
 *  distance, and duplicate indices included), indices random within
 *  `rankCount`. */
struct RequestStorage
{
    std::vector<std::uint32_t> indices;
    std::vector<std::uint32_t> offsets;

    RequestStorage(std::size_t batch, std::uint64_t rank_count,
                   std::uint64_t seed,
                   const std::vector<std::size_t> &bag_sizes = {0, 1, 3, 17,
                                                                64, 5})
    {
        Rng rng(seed);
        for (std::size_t b = 0; b < batch; ++b) {
            offsets.push_back(
                static_cast<std::uint32_t>(indices.size()));
            const std::size_t bag = bag_sizes[b % bag_sizes.size()];
            for (std::size_t g = 0; g < bag; ++g)
                indices.push_back(static_cast<std::uint32_t>(
                    rng.uniformInt(rank_count)));
            if (bag >= 2) // Force a duplicate into every real bag.
                indices.back() = indices[indices.size() - 2];
        }
    }

    GatherRequest view() const { return {indices, offsets}; }
};

bool
bytesEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

TEST(KernelBackendTest, GatherBitIdenticalAcrossBackends)
{
    // Dims cover vector-width multiples (16..256) and ugly tails (1,
    // 7, 17, 100 — not a multiple of 8 or 16 lanes). Up to 8 registers
    // (64 floats AVX2, 128 AVX-512) pool in one pass; 112 and 144 sit
    // on either side of the AVX-512 limit and past the AVX2 one.
    for (const std::uint32_t dim :
         {1u, 7u, 16u, 17u, 32u, 48u, 100u, 112u, 128u, 144u, 256u}) {
        const std::uint64_t rows = 512;
        const auto data = randomRows(rows, dim, /*seed=*/dim);
        TableSlice slice;
        slice.rows = data.data();
        slice.dim = dim;
        slice.rankCount = rows;
        slice.storageRows = rows;

        const RequestStorage req(/*batch=*/13, rows, /*seed=*/99);
        std::vector<float> expect(13 * dim, -1.0f);
        const std::size_t gathered =
            scalarBackend().gatherSumPool(slice, req.view(),
                                          expect.data());
        EXPECT_EQ(gathered, req.indices.size());

        for (const KernelBackend *backend : availableBackends()) {
            std::vector<float> got(13 * dim, 1.0f);
            EXPECT_EQ(backend->gatherSumPool(slice, req.view(),
                                             got.data()),
                      req.indices.size());
            EXPECT_TRUE(bytesEqual(got, expect))
                << backend->name() << " diverges from scalar at dim "
                << dim;
        }
    }
}

TEST(KernelBackendTest, GatherBitIdenticalOnRemappedShardSlice)
{
    // A hotness-sorted shard: ranks [100, 300) of a 512-row table,
    // remapped through a reversing permutation. Requests: the default
    // ragged bags, then a whole request (5 rows) shorter than the
    // prefetch distance, with an empty bag in front.
    const std::uint64_t rows = 512;
    std::vector<std::uint32_t> remap(rows);
    for (std::uint64_t r = 0; r < rows; ++r)
        remap[r] = static_cast<std::uint32_t>(rows - 1 - r);
    const RequestStorage requests[] = {
        RequestStorage(/*batch=*/7, /*rank_count=*/200, /*seed=*/5),
        RequestStorage(/*batch=*/3, /*rank_count=*/200, /*seed=*/6,
                       /*bag_sizes=*/{0, 2, 3}),
    };
    for (const std::uint32_t dim : {32u, 96u, 256u}) {
        const auto data = randomRows(rows, dim, 4);
        TableSlice slice;
        slice.rows = data.data();
        slice.dim = dim;
        slice.rankBase = 100;
        slice.rankCount = 200;
        slice.remap = remap.data();
        slice.storageRows = rows;

        for (const RequestStorage &req : requests) {
            const std::size_t batch = req.offsets.size();
            std::vector<float> expect(batch * dim);
            scalarBackend().gatherSumPool(slice, req.view(),
                                          expect.data());
            // Spot-check the remap is actually exercised: where item 1
            // is the single rank i, it pools storage row remap[100 + i].
            if (req.offsets[2] - req.offsets[1] == 1) {
                const std::uint32_t i1 = req.indices[req.offsets[1]];
                for (std::uint32_t d = 0; d < dim; ++d)
                    ASSERT_FLOAT_EQ(
                        expect[dim + d],
                        data[std::size_t(remap[100 + i1]) * dim + d]);
            }

            for (const KernelBackend *backend : availableBackends()) {
                std::vector<float> got(batch * dim, 1.0f);
                backend->gatherSumPool(slice, req.view(), got.data());
                EXPECT_TRUE(bytesEqual(got, expect))
                    << backend->name() << " at dim " << dim
                    << " with " << req.indices.size() << " rows";
            }
        }
    }
}

TEST(KernelBackendTest, GatherRejectsBadRequests)
{
    const std::uint32_t dim = 8;
    const auto data = randomRows(16, dim, 2);
    TableSlice slice;
    slice.rows = data.data();
    slice.dim = dim;
    slice.rankCount = 16;
    slice.storageRows = 16;
    std::vector<float> out(2 * dim);

    for (const KernelBackend *backend : availableBackends()) {
        // Empty batch.
        EXPECT_THROW(backend->gatherSumPool(slice, GatherRequest{},
                                            out.data()),
                     ConfigError)
            << backend->name();
        // Rank escaping the slice.
        const std::vector<std::uint32_t> bad_idx = {16};
        const std::vector<std::uint32_t> off = {0};
        EXPECT_THROW(backend->gatherSumPool(slice, {bad_idx, off},
                                            out.data()),
                     ConfigError)
            << backend->name();
        // Non-monotone offsets.
        const std::vector<std::uint32_t> idx = {1, 2};
        const std::vector<std::uint32_t> bad_off = {2, 0};
        EXPECT_THROW(backend->gatherSumPool(slice, {idx, bad_off},
                                            out.data()),
                     ConfigError)
            << backend->name();
    }

    // Bad ranks deep in a later bag, past the head of the request the
    // remap lookahead covers: the prefetches skip them and the gather
    // still raises. The remap holds exactly the slice's ranks, so a
    // prefetch reading past it trips ASan.
    std::vector<std::uint32_t> remap(16);
    for (std::uint32_t r = 0; r < 16; ++r)
        remap[r] = 15 - r;
    TableSlice shard = slice;
    shard.rankBase = 4;
    shard.rankCount = 12;
    shard.remap = remap.data();
    std::vector<std::uint32_t> far_idx(40, 3);
    const std::vector<std::uint32_t> four_bags = {0, 10, 20, 30};
    std::vector<float> out4(4 * dim);
    for (const KernelBackend *backend : availableBackends()) {
        // Rank 4 + 12 escapes the slice.
        far_idx[35] = 12;
        EXPECT_THROW(backend->gatherSumPool(shard, {far_idx, four_bags},
                                            out4.data()),
                     ConfigError)
            << backend->name();
        // Rank 4 + 7 remaps past the backing table.
        far_idx[35] = 7;
        remap[11] = 16;
        EXPECT_THROW(backend->gatherSumPool(shard, {far_idx, four_bags},
                                            out4.data()),
                     ConfigError)
            << backend->name();
        remap[11] = 4;
    }
}

/** One GEMM shape: C is m x n, the inner dimension k. */
struct GemmShape
{
    std::size_t m, k, n;
};

/** Every registered backend matches scalar byte for byte on `shape`
 *  under each activation in `relus`. */
void
expectGemmBitIdentical(const GemmShape &shape,
                       std::initializer_list<bool> relus)
{
    const auto [m, k, n] = shape;
    Rng rng(m * 1000003 + k * 1009 + n);
    std::vector<float> a(m * k), w(k * n), bias(n);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    for (const bool relu : relus) {
        std::vector<float> expect(m * n, -9.0f);
        scalarBackend().gemmBiasAct(a.data(), w.data(), bias.data(), m, k,
                                    n, relu, expect.data());
        if (relu) {
            for (const float v : expect)
                ASSERT_GE(v, 0.0f);
        }
        for (const KernelBackend *backend : availableBackends()) {
            std::vector<float> got(m * n, 9.0f);
            backend->gemmBiasAct(a.data(), w.data(), bias.data(), m, k, n,
                                 relu, got.data());
            EXPECT_TRUE(bytesEqual(got, expect))
                << backend->name() << " diverges at m=" << m << " k=" << k
                << " n=" << n << " relu=" << relu;
        }
    }
}

TEST(KernelBackendTest, GemmBitIdenticalAcrossBackends)
{
    // Each shape sits on a seam of the SIMD blocking: 6-row register
    // tiles with 1-row tiles for the rest (m around 1, 5, 6, 7, 32,
    // 33), k-blocks of 256 inputs (k around 1, 255, 256, 257, 2560)
    // and column tiles of 16 (AVX2) or 64 (AVX-512) floats ending in a
    // masked register (n around 1, 15, 16, 17, 63, 64, 65, 512, 513);
    // k = 0 still writes act(bias). A list rather than the cross
    // product keeps the test fast enough for the sanitizer build.
    const GemmShape shapes[] = {
        {9, 37, 1},     {9, 37, 5},      {9, 37, 33},     {9, 37, 100},
        {9, 37, 128},   {1, 1, 1},       {5, 255, 15},    {6, 256, 16},
        {7, 257, 17},   {32, 1, 63},     {33, 255, 64},   {1, 257, 65},
        {6, 2560, 17},  {7, 256, 512},   {5, 257, 513},   {33, 2560, 65},
        {32, 256, 1},   {6, 1, 513},     {7, 255, 63},    {1, 2560, 16},
        {33, 257, 15},  {5, 2560, 64},   {32, 255, 17},   {7, 0, 17},
    };
    for (const GemmShape &shape : shapes)
        expectGemmBitIdentical(shape, {false, true});
}

TEST(KernelBackendTest, GemmBitIdenticalOnServingShapes)
{
    // Every layer the serving path runs at batch 32, with its own
    // activation: ReLU on hidden layers, linear on each MLP's last.
    const struct
    {
        GemmShape shape;
        bool relu;
    } layers[] = {
        // RM3: bottom 2560-512-32, top 512-128-1.
        {{32, 2560, 512}, true},
        {{32, 512, 32}, false},
        {{32, 512, 128}, true},
        {{32, 128, 1}, false},
        // RM1: bottom 256-128-32, top 256-64-1.
        {{32, 256, 128}, true},
        {{32, 128, 32}, false},
        {{32, 256, 64}, true},
        {{32, 64, 1}, false},
    };
    for (const auto &layer : layers)
        expectGemmBitIdentical(layer.shape, {layer.relu});
}

TEST(KernelRegistryTest, ScalarAlwaysRegisteredFirst)
{
    const auto &backends = availableBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_STREQ(backends.front()->name(), "scalar");
    EXPECT_EQ(findBackend("scalar"), backends.front());
    EXPECT_EQ(findBackend("riscv-v"), nullptr);
    // bestBackend is the widest (last) entry, and what "" resolves to
    // when no env override is set in the test environment.
    EXPECT_STREQ(bestBackend().name(), backends.back()->name());
}

TEST(KernelRegistryTest, ResolveNamePicksEnvThenWidest)
{
    const std::vector<std::string> usable = {"scalar", "avx2"};
    // No request, no env: widest wins.
    EXPECT_EQ(detail::resolveName("", nullptr, usable), "avx2");
    // Env selects when no explicit request.
    EXPECT_EQ(detail::resolveName("", "scalar", usable), "scalar");
    // An explicit request (StackOptions) beats the env.
    EXPECT_EQ(detail::resolveName("scalar", "avx2", usable), "scalar");
    EXPECT_EQ(detail::resolveName("avx2", nullptr, usable), "avx2");
}

TEST(KernelRegistryTest, KnownButUnsupportedNameDegradesGracefully)
{
    // An operator pinning avx512 fleet-wide must not crash hosts
    // without the ISA: known names fall back to the widest usable.
    const std::vector<std::string> usable = {"scalar", "avx2"};
    EXPECT_EQ(detail::resolveName("avx512", nullptr, usable), "avx2");
    EXPECT_EQ(detail::resolveName("", "avx512", usable), "avx2");
    EXPECT_EQ(detail::resolveName("avx2", nullptr, {"scalar"}),
              "scalar");
}

TEST(KernelRegistryTest, UnknownNameIsConfigError)
{
    const std::vector<std::string> usable = {"scalar"};
    EXPECT_THROW(detail::resolveName("turbo9000", nullptr, usable),
                 ConfigError);
    EXPECT_THROW(detail::resolveName("", "turbo9000", usable),
                 ConfigError);
    EXPECT_THROW(detail::resolveName("", nullptr, {}), ConfigError);
    // resolveBackend wires the same rejection through the registry.
    EXPECT_THROW(resolveBackend("turbo9000"), ConfigError);
}

} // namespace
} // namespace erec::kernels
