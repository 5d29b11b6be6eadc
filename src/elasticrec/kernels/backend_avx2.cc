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
 * first column pass.
 *
 * GEMM blocking: C is computed in register tiles of 6 rows x 16
 * columns (twelve YMM accumulators), leftover rows in 1-row tiles, and
 * k is walked in blocks of 256 so every row tile reuses the block's W
 * slice from L1. Partial sums pass through C between k-blocks; the
 * last block adds the bias and applies the activation. Each output
 * lane still sums its products in ascending k with a separate multiply
 * and add, so the result matches the scalar reference byte for byte.
 * A column count that is not a multiple of 16 ends in one block whose
 * last register is masked.
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

/** All-ones in lanes [0, live), zero elsewhere: a maskload/maskstore
 *  mask for a register holding `live` of its 8 lanes. */
__m256i
laneMask(int live)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** One pass over a bag for the column block starting at c0. */
void
poolBlock(const TableSlice &table, const GatherRequest &req,
          std::size_t begin, std::size_t end, std::uint32_t c0,
          bool prefetch, float *acc)
{
    const std::uint32_t cols = std::min(table.dim - c0, kBlockCols);
    const std::uint32_t regs = (cols + kLanes - 1) / kLanes;
    const __m256i tail =
        laneMask(static_cast<int>(cols - (regs - 1) * kLanes));
    kPoolByRegs[regs - 1](table, req, begin, end, c0, tail, prefetch, acc);
}

/** Output rows of a full GEMM register tile. */
constexpr std::size_t kTileRows = 6;
/** Output columns of a GEMM register tile (two YMMs): 6 x 2
 *  accumulators, two W vectors and a broadcast fill 15 of the 16
 *  YMM registers. */
constexpr std::size_t kTileCols = 2 * kLanes;
/** Inner-dimension block: one tile's W slice (kKBlock x kTileCols
 *  floats, 16 KiB) stays L1-resident while every row tile reuses it. */
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
 * 8*kRegs) of C over inputs [k0, k1). With kTail set the last register
 * is limited to the lanes set in `tail`; a full-width block stays
 * unmasked, because vmaskmovps costs an extra uop per k step. The
 * first k-block starts from zero, later ones from the partial sums in
 * C; the last adds the bias and activation. The constant-trip loops
 * must unroll, or GCC keeps acc[] on the stack and pays a load and a
 * store per k step.
 */
template <int kRows, int kRegs, bool kTail>
void
gemmTile(const GemmArgs &g, std::size_t r0, std::size_t c0, std::size_t k0,
         std::size_t k1, __m256i tail)
{
    // The register limited to `tail`; none when it is kRegs.
    constexpr int kMaskedReg = kTail ? kRegs - 1 : kRegs;
    auto load = [tail](int v, const float *p) {
        return v < kMaskedReg ? _mm256_loadu_ps(p)
                              : _mm256_maskload_ps(p, tail);
    };
    auto store = [tail](int v, float *p, __m256 x) {
        if (v < kMaskedReg)
            _mm256_storeu_ps(p, x);
        else
            _mm256_maskstore_ps(p, tail, x);
    };
    const std::size_t k = g.k, n = g.n;
    const float *a = g.a + r0 * k;
    const float *w = g.w + c0;
    float *c = g.c + r0 * n + c0;

    __m256 acc[kRows][kRegs];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < kRegs; ++v)
            acc[r][v] = k0 == 0 ? _mm256_setzero_ps()
                                : load(v, c + r * n + kLanes * v);
    }
    for (std::size_t i = k0; i < k1; ++i) {
        const float *wrow = w + i * n;
        __m256 wv[kRegs];
#pragma GCC unroll 2
        for (int v = 0; v < kRegs; ++v)
            wv[v] = load(v, wrow + kLanes * v);
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
            const __m256 x = _mm256_set1_ps(a[r * k + i]);
#pragma GCC unroll 2
            for (int v = 0; v < kRegs; ++v)
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(x, wv[v]));
        }
    }
    const bool last = k1 == k;
    const __m256 zero = _mm256_setzero_ps();
#pragma GCC unroll 2
    for (int v = 0; v < kRegs; ++v) {
        const __m256 b = last ? load(v, g.bias + c0 + kLanes * v) : zero;
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
            __m256 y = acc[r][v];
            if (last) {
                y = _mm256_add_ps(y, b);
                if (g.relu)
                    y = _mm256_max_ps(y, zero);
            }
            store(v, c + r * n + kLanes * v, y);
        }
    }
}

/** gemmTile by column block: index 0 holds the full, unmasked block,
 *  index r a block of r registers whose last one is masked. */
using TileFn = void (*)(const GemmArgs &, std::size_t, std::size_t,
                        std::size_t, std::size_t, __m256i);
constexpr TileFn kMultiRowTiles[] = {
    gemmTile<kTileRows, 2, false>,
    gemmTile<kTileRows, 1, true>,
    gemmTile<kTileRows, 2, true>,
};
constexpr TileFn kOneRowTiles[] = {
    gemmTile<1, 2, false>,
    gemmTile<1, 1, true>,
    gemmTile<1, 2, true>,
};

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
        const GemmArgs g{a, w, bias, k, n, relu, c};
        // At least one k-block, so k = 0 still writes act(bias).
        std::size_t k0 = 0;
        do {
            const std::size_t k1 = std::min(k, k0 + kKBlock);
            for (std::size_t c0 = 0; c0 < n; c0 += kTileCols) {
                const std::size_t cols = std::min(n - c0, kTileCols);
                const std::size_t regs = (cols + kLanes - 1) / kLanes;
                const __m256i tail = laneMask(
                    static_cast<int>(cols - (regs - 1) * kLanes));
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
avx2BackendImpl()
{
    static const Avx2Backend backend;
    return backend;
}

} // namespace detail
} // namespace erec::kernels

#endif // ERC_KERNELS_HAVE_AVX2
