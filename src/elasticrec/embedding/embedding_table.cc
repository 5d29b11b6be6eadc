#include "elasticrec/embedding/embedding_table.h"

#include <cstring>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"

namespace erec::embedding {

namespace {

/** Charged by the gate around the pooled-gather loop. */
AllocRegion &
gatherRegion()
{
    static AllocRegion region("embedding-gather");
    return region;
}

/** SplitMix64-style row/lane hash for virtual tables. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/** Map a 64-bit hash to a float in [-0.05, 0.05) (DLRM-style init). */
float
hashToFloat(std::uint64_t h)
{
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return static_cast<float>((u - 0.5) * 0.1);
}

} // namespace

EmbeddingTable::EmbeddingTable(std::uint64_t num_rows, std::uint32_t dim,
                               Storage storage, std::uint64_t seed)
    : numRows_(num_rows), dim_(dim), storage_(storage), seed_(seed)
{
    ERC_CHECK(num_rows > 0, "table needs at least one row");
    ERC_CHECK(dim > 0, "embedding dimension must be positive");
    if (storage_ == Storage::Materialized) {
        ERC_CHECK(num_rows * dim <= (1ull << 31),
                  "materialized table too large ("
                      << num_rows << " x " << dim
                      << " floats); use Storage::Virtual");
        data_ = HugePageBuffer<float>(num_rows * dim);
        Rng rng(seed_);
        for (auto &v : data_)
            v = static_cast<float>((rng.uniform() - 0.5) * 0.1);
    }
}

void
EmbeddingTable::synthesizeRow(std::uint64_t row, float *out) const
{
    const std::uint64_t base = mix(seed_ ^ (row * 0x9E3779B97F4A7C15ull));
    for (std::uint32_t d = 0; d < dim_; ++d)
        out[d] = hashToFloat(mix(base + d));
}

void
EmbeddingTable::readRow(std::uint64_t row, float *out) const
{
    ERC_CHECK(row < numRows_, "row " << row << " out of range");
    if (storage_ == Storage::Materialized) {
        std::memcpy(out, &data_[row * dim_], dim_ * sizeof(float));
    } else {
        synthesizeRow(row, out);
    }
}

float
EmbeddingTable::at(std::uint64_t row, std::uint32_t d) const
{
    ERC_CHECK(row < numRows_ && d < dim_, "element out of range");
    if (storage_ == Storage::Materialized)
        return data_[row * dim_ + d];
    std::vector<float> tmp(dim_);
    synthesizeRow(row, tmp.data());
    return tmp[d];
}

void
EmbeddingTable::addRowTo(std::uint64_t row, float *acc) const
{
    ERC_CHECK(row < numRows_, "row " << row << " out of range");
    if (storage_ == Storage::Materialized) {
        const float *src = &data_[row * dim_];
        for (std::uint32_t d = 0; d < dim_; ++d)
            acc[d] += src[d];
        return;
    }
    // Virtual rows accumulate straight out of the hash — the same
    // values synthesizeRow() produces, added in the same lane order,
    // so results stay bit-identical to the buffered path.
    const std::uint64_t base = mix(seed_ ^ (row * 0x9E3779B97F4A7C15ull));
    for (std::uint32_t d = 0; d < dim_; ++d)
        acc[d] += hashToFloat(mix(base + d));
}

kernels::TableSlice
EmbeddingTable::wholeSlice() const
{
    ERC_CHECK(storage_ == Storage::Materialized,
              "virtual tables have no materialized rows to view");
    kernels::TableSlice slice;
    slice.rows = data_.data();
    slice.dim = dim_;
    slice.rankCount = numRows_;
    slice.storageRows = numRows_;
    return slice;
}

std::size_t
EmbeddingTable::gatherPool(const kernels::GatherRequest &req, float *out,
                           const kernels::KernelBackend &backend) const
{
    ERC_CHECK(req.batch > 0, "gatherPool needs at least one batch item");
    const AllocGate gate(gatherRegion());
    if (storage_ == Storage::Materialized)
        return backend.gatherSumPool(wholeSlice(), req, out);
    // Virtual rows are synthesized from the hash — there are no
    // materialized bytes for a backend to vectorize over, so pooling
    // accumulates scalar-side in the same lane order as readRow().
    for (std::size_t b = 0; b < req.batch; ++b) {
        const auto [begin, end] = kernels::detail::bagBounds(req, b);
        float *acc = out + b * dim_;
        std::memset(acc, 0, dim_ * sizeof(float));
        for (std::size_t i = begin; i < end; ++i)
            addRowTo(req.indices[i], acc);
    }
    return req.numIndices;
}

} // namespace erec::embedding
