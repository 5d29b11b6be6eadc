/**
 * @file
 * AVX-512 backend: 16-lane gather-pool and GEMM, same blocking scheme
 * as the AVX2 backend at twice the lane width (gather column blocks of
 * up to 128 floats in eight ZMM accumulators; GEMM register tiles of
 * 6 rows x 64 columns in 24 ZMM accumulators, k-blocks of 256).
 * Compiled with -mavx512f and -ffp-contract=off; see
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

/** Output rows of a full GEMM register tile. */
constexpr std::size_t kTileRows = 6;
/** Output columns of a GEMM register tile (four ZMMs). */
constexpr std::size_t kTileCols = 4 * kLanes;
/** Inner-dimension block: one tile's W slice (kKBlock x kTileCols
 *  floats, 64 KiB) stays cache-resident while every row tile reuses
 *  it. */
constexpr std::size_t kKBlock = 256;

/** gemmBiasAct's arguments, shared by every tile of one call. */
struct GemmArgs
{
    const float *a;
    const float *w;
    const float *bias;
    std::size_t k;
    std::size_t n;
    bool relu;
    float *c;
};

/**
 * One register tile: rows [r0, r0 + kRows) x columns [c0, c0 +
 * 16*kRegs) of C over inputs [k0, k1). With kTail set the last
 * register is limited to the lanes in `tail`; a full-width block stays
 * unmasked, which also keeps the mask out of the k loop (GCC reloads a
 * mask from the stack there). The first k-block starts from zero,
 * later ones from the partial sums in C; the last adds the bias and
 * activation. The constant-trip loops must unroll, or GCC keeps acc[]
 * on the stack and pays a load and a store per k step.
 */
template <int kRows, int kRegs, bool kTail>
void
gemmTile(const GemmArgs &g, std::size_t r0, std::size_t c0, std::size_t k0,
         std::size_t k1, __mmask16 tail)
{
    // The register limited to `tail`; none when it is kRegs.
    constexpr int kMaskedReg = kTail ? kRegs - 1 : kRegs;
    auto load = [tail](int v, const float *p) {
        return v < kMaskedReg ? _mm512_loadu_ps(p)
                              : _mm512_maskz_loadu_ps(tail, p);
    };
    auto store = [tail](int v, float *p, __m512 x) {
        if (v < kMaskedReg)
            _mm512_storeu_ps(p, x);
        else
            _mm512_mask_storeu_ps(p, tail, x);
    };
    const std::size_t k = g.k, n = g.n;
    const float *a = g.a + r0 * k;
    const float *w = g.w + c0;
    float *c = g.c + r0 * n + c0;

    __m512 acc[kRows][kRegs];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
        for (int v = 0; v < kRegs; ++v)
            acc[r][v] = k0 == 0 ? _mm512_setzero_ps()
                                : load(v, c + r * n + kLanes * v);
    }
    for (std::size_t i = k0; i < k1; ++i) {
        const float *wrow = w + i * n;
        __m512 wv[kRegs];
#pragma GCC unroll 4
        for (int v = 0; v < kRegs; ++v)
            wv[v] = load(v, wrow + kLanes * v);
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
            const __m512 x = _mm512_set1_ps(a[r * k + i]);
#pragma GCC unroll 4
            for (int v = 0; v < kRegs; ++v)
                acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(x, wv[v]));
        }
    }
    const bool last = k1 == k;
    const __m512 zero = _mm512_setzero_ps();
#pragma GCC unroll 4
    for (int v = 0; v < kRegs; ++v) {
        const __m512 b = last ? load(v, g.bias + c0 + kLanes * v) : zero;
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
            __m512 y = acc[r][v];
            if (last) {
                y = _mm512_add_ps(y, b);
                if (g.relu)
                    y = _mm512_max_ps(y, zero);
            }
            store(v, c + r * n + kLanes * v, y);
        }
    }
}

/** gemmTile by column block: index 0 holds the full, unmasked block,
 *  index r a block of r registers whose last one is masked. */
using TileFn = void (*)(const GemmArgs &, std::size_t, std::size_t,
                        std::size_t, std::size_t, __mmask16);
constexpr TileFn kMultiRowTiles[] = {
    gemmTile<kTileRows, 4, false>, gemmTile<kTileRows, 1, true>,
    gemmTile<kTileRows, 2, true>,  gemmTile<kTileRows, 3, true>,
    gemmTile<kTileRows, 4, true>,
};
constexpr TileFn kOneRowTiles[] = {
    gemmTile<1, 4, false>, gemmTile<1, 1, true>, gemmTile<1, 2, true>,
    gemmTile<1, 3, true>,  gemmTile<1, 4, true>,
};

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
        const GemmArgs g{a, w, bias, k, n, relu, c};
        // At least one k-block, so k = 0 still writes act(bias).
        std::size_t k0 = 0;
        do {
            const std::size_t k1 = std::min(k, k0 + kKBlock);
            for (std::size_t c0 = 0; c0 < n; c0 += kTileCols) {
                const std::size_t cols = std::min(n - c0, kTileCols);
                const std::size_t regs = (cols + kLanes - 1) / kLanes;
                const auto tail = static_cast<__mmask16>(
                    (1u << (cols - (regs - 1) * kLanes)) - 1);
                const std::size_t tile = cols == kTileCols ? 0 : regs;
                std::size_t r0 = 0;
                for (; r0 + kTileRows <= m; r0 += kTileRows)
                    kMultiRowTiles[tile](g, r0, c0, k0, k1, tail);
                for (; r0 < m; ++r0)
                    kOneRowTiles[tile](g, r0, c0, k0, k1, tail);
            }
            k0 = k1;
        } while (k0 < k);
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
