#pragma once

/**
 * @file
 * The pluggable compute-kernel interface behind the embedding gather
 * and MLP GEMM hot paths.
 *
 * The paper's one-time profiling pass (Figure 9) shows embedding
 * gather and MLP GEMM dominate per-query compute. A KernelBackend
 * bundles exactly those two kernels:
 *
 *  - gatherSumPool: gather-and-sum-pool over a raw index/offset view
 *    (Figure 11 layout) against a row-major table slice, and
 *  - gemmBiasAct: a blocked GEMM microkernel with fused bias add and
 *    optional ReLU (the MLP layer primitive).
 *
 * Backends register in kernels/registry.h and are dispatched at
 * runtime by CPUID (`scalar` always; `avx2` / `avx512` when the host
 * supports them; selectable via ERC_KERNEL_BACKEND and
 * serving::StackOptions). Every backend must produce *bit-identical*
 * outputs to the scalar reference: kernels vectorize across the
 * embedding / output dimension only, so each output lane accumulates
 * the same values in the same order as the scalar loops. That is what
 * lets the serving stack switch backends without perturbing a single
 * output byte — and what lets later backends (a modeled near-memory
 * gather, a GPU shard) plug into the same seam.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/hotpath.h"

namespace erec::kernels {

/**
 * {ptr,len} view of one gather-sum-pool request: embedding ranks
 * grouped per batch item by an offset array — the paper's Figure 11
 * layout, exactly what a sparse shard RPC carries. Non-owning: the
 * caller keeps both arrays alive for the duration of the call.
 */
struct GatherRequest
{
    /** Ranks to gather, relative to the slice (see TableSlice). */
    const std::uint32_t *indices = nullptr;
    std::size_t numIndices = 0;
    /** Start of each batch item's ranks within `indices`; item b owns
     *  [offsets[b], offsets[b+1]) and the last item runs to the end. */
    const std::uint32_t *offsets = nullptr;
    /** Number of batch items (= length of the offset array). */
    std::size_t batch = 0;

    GatherRequest() = default;

    /** View over a query lookup's index/offset vectors. */
    GatherRequest(const std::vector<std::uint32_t> &idx,
                  const std::vector<std::uint32_t> &off)
        : indices(idx.data()), numIndices(idx.size()),
          offsets(off.data()), batch(off.size())
    {}
};

/**
 * Non-owning view of the materialized embedding rows a gather executes
 * against. A request index i addresses rank `rankBase + indices[i]`,
 * which must fall in [rankBase, rankBase + rankCount); the storage row
 * is `remap[rank]` when a hotness permutation is attached and `rank`
 * itself otherwise. `rows` is the base of the *full* table storage
 * (row-major, `dim` floats per row), because remapped ranks may land
 * anywhere in the backing table.
 */
struct TableSlice
{
    const float *rows = nullptr;
    std::uint32_t dim = 0;
    /** First valid rank (shard begin; 0 for a whole table). */
    std::uint64_t rankBase = 0;
    /** Ranks owned by this slice. */
    std::uint64_t rankCount = 0;
    /** Optional rank -> storage-row map (hotness sort permutation). */
    const std::uint32_t *remap = nullptr;
    /** Rows in the backing storage (bounds remapped rows). */
    std::uint64_t storageRows = 0;
};

namespace detail {

/** Bounds of batch item b's ranks; validates offset monotonicity. */
inline std::pair<std::size_t, std::size_t>
bagBounds(const GatherRequest &req, std::size_t b)
{
    const std::size_t begin = req.offsets[b];
    const std::size_t end =
        (b + 1 < req.batch) ? req.offsets[b + 1] : req.numIndices;
    ERC_CHECK(begin <= end && end <= req.numIndices,
              "offset array is not monotone within the index array");
    return {begin, end};
}

/** Rank -> bounds-checked storage row. */
inline std::uint64_t
resolveRow(const TableSlice &t, std::uint32_t index)
{
    const std::uint64_t rank = t.rankBase + index;
    ERC_CHECK(rank < t.rankBase + t.rankCount,
              "gather rank " << rank << " escapes the table slice");
    const std::uint64_t row = t.remap != nullptr ? t.remap[rank] : rank;
    ERC_CHECK(row < t.storageRows,
              "remapped row " << row << " escapes the backing table");
    return row;
}

/** Request positions between a row's prefetch and its load. */
inline constexpr std::size_t kRowPrefetchDistance = 16;
/** Request positions between a remap entry's prefetch and its load,
 *  which the row prefetch kRowPrefetchDistance positions ahead does. */
inline constexpr std::size_t kRemapPrefetchDistance = 32;

/*
 * Software prefetch for the gather kernels. The positions run over the
 * whole request, across bag boundaries. None of these raise: positions
 * past the request and ranks or rows escaping the slice are skipped,
 * so a bad index still fails through resolveRow with a proper error.
 *
 * Always inlined: GCC's IPA pass takes a function whose only effect is
 * __builtin_prefetch for a `const` one and deletes every call to it.
 */

/** Prefetch the remap entry of request position `pos`. */
[[gnu::always_inline]] inline void
prefetchRemapEntry(const TableSlice &t, const GatherRequest &req,
                   std::size_t pos)
{
    if (t.remap == nullptr || pos >= req.numIndices)
        return;
    const std::uint64_t rank = t.rankBase + req.indices[pos];
    if (rank < t.rankBase + t.rankCount)
        __builtin_prefetch(t.remap + rank);
}

/** Prefetch every cache line of the row at request position `pos`. */
[[gnu::always_inline]] inline void
prefetchRowLines(const TableSlice &t, const GatherRequest &req,
                 std::size_t pos)
{
    if (pos >= req.numIndices)
        return;
    const std::uint64_t rank = t.rankBase + req.indices[pos];
    if (rank >= t.rankBase + t.rankCount)
        return;
    const std::uint64_t row = t.remap != nullptr ? t.remap[rank] : rank;
    if (row >= t.storageRows)
        return;
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(t.rows + row * t.dim);
    const std::uintptr_t last = first + t.dim * sizeof(float) - 1;
    for (std::uintptr_t line = first & ~(kLine - 1); line <= last;
         line += kLine)
        __builtin_prefetch(reinterpret_cast<const void *>(line));
}

/** Before pooling any position: the head of the request, which no
 *  prefetchAhead call reaches. */
[[gnu::always_inline]] inline void
prefetchHead(const TableSlice &t, const GatherRequest &req)
{
    for (std::size_t pos = 0; pos < kRemapPrefetchDistance; ++pos)
        prefetchRemapEntry(t, req, pos);
    for (std::size_t pos = 0; pos < kRowPrefetchDistance; ++pos)
        prefetchRowLines(t, req, pos);
}

/** Before pooling request position i: the row and the remap entry the
 *  gather reaches a fixed distance later. */
[[gnu::always_inline]] inline void
prefetchAhead(const TableSlice &t, const GatherRequest &req, std::size_t i)
{
    prefetchRemapEntry(t, req, i + kRemapPrefetchDistance);
    prefetchRowLines(t, req, i + kRowPrefetchDistance);
}

} // namespace detail

/**
 * One implementation of the hot compute kernels. Stateless and
 * thread-safe: a single registered instance serves every table and
 * every MLP concurrently.
 */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;

    /** Registry name ("scalar", "avx2", "avx512"). */
    virtual const char *name() const = 0;

    /**
     * Gather-and-sum-pool: for each batch item b, sums the rows
     * addressed by its ranks into out[b*dim .. (b+1)*dim). The output
     * is fully overwritten (empty bags produce zeros). Returns the
     * number of rows gathered. Raises ConfigError on a non-monotone
     * offset array or a rank escaping the slice.
     */
    ERC_HOT_PATH
    virtual std::size_t gatherSumPool(const TableSlice &table,
                                      const GatherRequest &req,
                                      float *out) const = 0;

    /**
     * Dense-layer microkernel: C = act(A x W + bias) with A m-by-k
     * (row-major), W k-by-n (row-major by input, model::Mlp's weight
     * layout), bias of length n, and act = ReLU (v > 0 ? v : 0) when
     * `relu` is set, identity otherwise. Accumulation runs over k in
     * ascending order per output lane — the contract that keeps every
     * backend bit-identical to the scalar reference. C's prior
     * contents are ignored (the blocked kernels keep partial sums
     * there between k-blocks), so C must not overlap A, W or bias.
     */
    ERC_HOT_PATH
    virtual void gemmBiasAct(const float *a, const float *w,
                             const float *bias, std::size_t m,
                             std::size_t k, std::size_t n, bool relu,
                             float *c) const = 0;
};

} // namespace erec::kernels
