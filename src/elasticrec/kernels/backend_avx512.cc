/**
 * @file
 * AVX-512 backend: 16-lane gather-pool and GEMM, same blocking scheme
 * as the AVX2 backend at twice the lane width (gather column blocks of
 * up to 128 floats in eight ZMM accumulators; GEMM register tiles of 64
 * columns). Compiled with -mavx512f and -ffp-contract=off; see
 * backend_avx2.cc for the bit-identity reasoning, which is unchanged:
 * lanes map 1:1 onto output dimensions, so per-lane accumulation
 * order matches the scalar reference exactly. A dim that is not a
 * multiple of 16 ends in one masked register: its dead lanes load
 * zeros without touching memory and are never stored.
 */

#include "elasticrec/kernels/backend_impl.h"

#ifdef ERC_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::kernels {
namespace {

/** Floats per ZMM register. */
constexpr std::uint32_t kLanes = 16;
/** Columns one pass over a bag keeps in registers (eight ZMMs). */
constexpr std::uint32_t kBlockCols = 8 * kLanes;

/**
 * Accumulate columns [c0, c0 + 16*kRegs) of one bag into `acc`, the
 * last register limited to the lanes in `tail`. The first column pass
 * over a bag (`prefetch`) issues the request-wide prefetches.
 */
template <int kRegs>
void
poolColumns(const TableSlice &table, const GatherRequest &req,
            std::size_t begin, std::size_t end, std::uint32_t c0,
            __mmask16 tail, bool prefetch, float *acc)
{
    __m512 sum[kRegs];
    for (int v = 0; v < kRegs; ++v)
        sum[v] = _mm512_setzero_ps();
    constexpr int kLast = kRegs - 1;
    const std::uint32_t dim = table.dim;
    for (std::size_t i = begin; i < end; ++i) {
        if (prefetch)
            detail::prefetchAhead(table, req, i);
        const float *src =
            table.rows + detail::resolveRow(table, req.indices[i]) * dim + c0;
        for (int v = 0; v < kLast; ++v)
            sum[v] = _mm512_add_ps(sum[v], _mm512_loadu_ps(src + kLanes * v));
        sum[kLast] = _mm512_add_ps(
            sum[kLast], _mm512_maskz_loadu_ps(tail, src + kLanes * kLast));
    }
    for (int v = 0; v < kLast; ++v)
        _mm512_storeu_ps(acc + c0 + kLanes * v, sum[v]);
    _mm512_mask_storeu_ps(acc + c0 + kLanes * kLast, tail, sum[kLast]);
}

/** poolColumns by register count: index r - 1 holds r registers. */
using PoolFn = void (*)(const TableSlice &, const GatherRequest &,
                        std::size_t, std::size_t, std::uint32_t, __mmask16,
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
    const auto tail = static_cast<__mmask16>(
        (1u << (cols - (regs - 1) * kLanes)) - 1);
    kPoolByRegs[regs - 1](table, req, begin, end, c0, tail, prefetch, acc);
}

/** One register tile of kBlocks*16 output columns starting at o0. */
template <int kBlocks>
void
gemmTile(const float *x, const float *w, const float *bias, std::size_t k,
         std::size_t n, std::size_t o0, bool relu, float *y)
{
    __m512 acc[kBlocks];
    for (int v = 0; v < kBlocks; ++v)
        acc[v] = _mm512_setzero_ps();
    for (std::size_t i = 0; i < k; ++i) {
        const __m512 xi = _mm512_set1_ps(x[i]);
        const float *wrow = w + i * n + o0;
        for (int v = 0; v < kBlocks; ++v)
            acc[v] = _mm512_add_ps(
                acc[v], _mm512_mul_ps(xi, _mm512_loadu_ps(wrow + 16 * v)));
    }
    const __m512 zero = _mm512_setzero_ps();
    for (int v = 0; v < kBlocks; ++v) {
        __m512 r = _mm512_add_ps(acc[v], _mm512_loadu_ps(bias + o0 + 16 * v));
        if (relu)
            r = _mm512_max_ps(r, zero);
        _mm512_storeu_ps(y + o0 + 16 * v, r);
    }
}

class Avx512Backend final : public KernelBackend
{
  public:
    const char *
    name() const override
    {
        return "avx512";
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
            // A dim of up to 128 floats pools in a single pass.
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
            for (; o0 + 64 <= n; o0 += 64)
                gemmTile<4>(x, w, bias, k, n, o0, relu, y);
            for (; o0 + 16 <= n; o0 += 16)
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
avx512BackendImpl()
{
    static const Avx512Backend backend;
    return backend;
}

} // namespace detail
} // namespace erec::kernels

#endif // ERC_KERNELS_HAVE_AVX512
