/**
 * @file
 * AVX2 backend: 8-lane gather-pool and GEMM. Compiled with -mavx2 and
 * -ffp-contract=off (a fused multiply-add would round differently and
 * break bit-identity with scalar). Vectorization runs across the
 * embedding / output dimension only, so every output lane accumulates
 * the same values in the same order as the scalar reference.
 *
 * Gather blocking: columns are processed in blocks of up to 64 floats
 * held in eight YMM accumulators, so the running sums stay register-
 * resident across the whole bag and each gathered row costs pure
 * loads + adds; a dim of up to 64 floats pools every bag in a single
 * pass. A dim that is not a multiple of 8 ends in one masked register,
 * whose dead lanes load zeros without touching memory and are never
 * stored. Prefetching (kernel_backend.h) runs request-wide on the
 * first column pass. GEMM tiling: each output row is computed in
 * register tiles of 32 columns (four YMM accumulators) with the k loop
 * ascending, W rows streamed once per tile.
 */

#include "elasticrec/kernels/backend_impl.h"

#ifdef ERC_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::kernels {
namespace {

/** Floats per YMM register. */
constexpr std::uint32_t kLanes = 8;
/** Columns one pass over a bag keeps in registers (eight YMMs). */
constexpr std::uint32_t kBlockCols = 8 * kLanes;

/**
 * Accumulate columns [c0, c0 + 8*kRegs) of one bag into `acc`, the
 * last register limited to the lanes set in `tail`. The first column
 * pass over a bag (`prefetch`) issues the request-wide prefetches.
 */
template <int kRegs>
void
poolColumns(const TableSlice &table, const GatherRequest &req,
            std::size_t begin, std::size_t end, std::uint32_t c0,
            __m256i tail, bool prefetch, float *acc)
{
    __m256 sum[kRegs];
    for (int v = 0; v < kRegs; ++v)
        sum[v] = _mm256_setzero_ps();
    constexpr int kLast = kRegs - 1;
    const std::uint32_t dim = table.dim;
    for (std::size_t i = begin; i < end; ++i) {
        if (prefetch)
            detail::prefetchAhead(table, req, i);
        const float *src =
            table.rows + detail::resolveRow(table, req.indices[i]) * dim + c0;
        for (int v = 0; v < kLast; ++v)
            sum[v] = _mm256_add_ps(sum[v], _mm256_loadu_ps(src + kLanes * v));
        sum[kLast] = _mm256_add_ps(
            sum[kLast], _mm256_maskload_ps(src + kLanes * kLast, tail));
    }
    for (int v = 0; v < kLast; ++v)
        _mm256_storeu_ps(acc + c0 + kLanes * v, sum[v]);
    _mm256_maskstore_ps(acc + c0 + kLanes * kLast, tail, sum[kLast]);
}

/** poolColumns by register count: index r - 1 holds r registers. */
using PoolFn = void (*)(const TableSlice &, const GatherRequest &,
                        std::size_t, std::size_t, std::uint32_t, __m256i,
                        bool, float *);
constexpr PoolFn kPoolByRegs[] = {
    poolColumns<1>, poolColumns<2>, poolColumns<3>, poolColumns<4>,
    poolColumns<5>, poolColumns<6>, poolColumns<7>, poolColumns<8>,
};

/** One pass over a bag for the column block starting at c0. */
void
poolBlock(const TableSlice &table, const GatherRequest &req,
          std::size_t begin, std::size_t end, std::uint32_t c0,
          bool prefetch, float *acc)
{
    const std::uint32_t cols = std::min(table.dim - c0, kBlockCols);
    const std::uint32_t regs = (cols + kLanes - 1) / kLanes;
    const auto live = static_cast<int>(cols - (regs - 1) * kLanes);
    // Lane l is live when l < live: all-ones there, zero elsewhere.
    const __m256i tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(live), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    kPoolByRegs[regs - 1](table, req, begin, end, c0, tail, prefetch, acc);
}

/** One register tile of kBlocks*8 output columns starting at o0. */
template <int kBlocks>
void
gemmTile(const float *x, const float *w, const float *bias, std::size_t k,
         std::size_t n, std::size_t o0, bool relu, float *y)
{
    __m256 acc[kBlocks];
    for (int v = 0; v < kBlocks; ++v)
        acc[v] = _mm256_setzero_ps();
    for (std::size_t i = 0; i < k; ++i) {
        const __m256 xi = _mm256_set1_ps(x[i]);
        const float *wrow = w + i * n + o0;
        for (int v = 0; v < kBlocks; ++v)
            acc[v] = _mm256_add_ps(
                acc[v], _mm256_mul_ps(xi, _mm256_loadu_ps(wrow + 8 * v)));
    }
    const __m256 zero = _mm256_setzero_ps();
    for (int v = 0; v < kBlocks; ++v) {
        __m256 r = _mm256_add_ps(acc[v], _mm256_loadu_ps(bias + o0 + 8 * v));
        if (relu)
            r = _mm256_max_ps(r, zero);
        _mm256_storeu_ps(y + o0 + 8 * v, r);
    }
}

class Avx2Backend final : public KernelBackend
{
  public:
    const char *
    name() const override
    {
        return "avx2";
    }

    std::size_t
    gatherSumPool(const TableSlice &table, const GatherRequest &req,
                  float *out) const override
    {
        ERC_CHECK(req.batch > 0, "gather needs at least one batch item");
        const std::uint32_t dim = table.dim;
        detail::prefetchHead(table, req);
        for (std::size_t b = 0; b < req.batch; ++b) {
            const auto [begin, end] = detail::bagBounds(req, b);
            float *acc = out + b * static_cast<std::size_t>(dim);
            for (std::uint32_t c0 = 0; c0 < dim; c0 += kBlockCols)
                poolBlock(table, req, begin, end, c0,
                          /*prefetch=*/c0 == 0, acc);
        }
        return req.numIndices;
    }

    void
    gemmBiasAct(const float *a, const float *w, const float *bias,
                std::size_t m, std::size_t k, std::size_t n, bool relu,
                float *c) const override
    {
        for (std::size_t mi = 0; mi < m; ++mi) {
            const float *x = a + mi * k;
            float *y = c + mi * n;
            std::size_t o0 = 0;
            for (; o0 + 32 <= n; o0 += 32)
                gemmTile<4>(x, w, bias, k, n, o0, relu, y);
            for (; o0 + 8 <= n; o0 += 8)
                gemmTile<1>(x, w, bias, k, n, o0, relu, y);
            for (; o0 < n; ++o0) {
                float acc = 0.0f;
                for (std::size_t i = 0; i < k; ++i)
                    acc += x[i] * w[i * n + o0];
                const float v = acc + bias[o0];
                y[o0] = relu ? (v > 0.0f ? v : 0.0f) : v;
            }
        }
    }
};

} // namespace

namespace detail {

const KernelBackend &
avx2BackendImpl()
{
    static const Avx2Backend backend;
    return backend;
}

} // namespace detail
} // namespace erec::kernels

#endif // ERC_KERNELS_HAVE_AVX2
