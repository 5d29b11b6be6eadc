#include "elasticrec/core/bucketizer.h"

#include <algorithm>

#include "elasticrec/common/error.h"

namespace erec::core {

namespace {

/** Index positions between an inverse-permutation prefetch and the
 *  read it hides. */
constexpr std::size_t kPrefetchDistance = 16;

/** Prefetch the inverse-permutation entry of index position `pos`;
 *  skips positions past the lookup and out-of-range IDs, which the
 *  read itself rejects. Always inlined: GCC's IPA pass takes a
 *  prefetch-only function for a `const` one and deletes its calls. */
[[gnu::always_inline]] inline void
prefetchInverse(const HugePageBuffer<std::uint32_t> &inverse,
                const std::vector<std::uint32_t> &ids, std::size_t pos)
{
    if (pos < ids.size() && ids[pos] < inverse.size())
        __builtin_prefetch(inverse.data() + ids[pos]);
}

} // namespace

Bucketizer::Bucketizer(std::vector<std::uint64_t> boundaries,
                       const std::vector<std::uint32_t> &inverse_perm)
    : boundaries_(std::move(boundaries)),
      inversePerm_(inverse_perm.data(), inverse_perm.size())
{
    ERC_CHECK(!boundaries_.empty(), "need at least one shard");
    std::uint64_t prev = 0;
    for (auto b : boundaries_) {
        ERC_CHECK(b > prev, "boundaries must be strictly increasing");
        prev = b;
    }
    ERC_CHECK(inversePerm_.empty() ||
                  inversePerm_.size() == boundaries_.back(),
              "inverse permutation must cover the whole table");
}

std::uint64_t
Bucketizer::rankOf(std::uint32_t original_id) const
{
    ERC_CHECK(original_id < boundaries_.back(),
              "index ID " << original_id << " out of table range");
    if (inversePerm_.empty())
        return original_id;
    return inversePerm_[original_id];
}

std::uint32_t
Bucketizer::shardOf(std::uint32_t original_id) const
{
    const std::uint64_t rank = rankOf(original_id);
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), rank);
    return static_cast<std::uint32_t>(it - boundaries_.begin());
}

std::vector<workload::SparseLookup>
Bucketizer::bucketize(const workload::SparseLookup &in) const
{
    std::vector<workload::SparseLookup> out;
    bucketizeInto(in, &out);
    return out;
}

void
Bucketizer::bucketizeInto(const workload::SparseLookup &in,
                          std::vector<workload::SparseLookup> *out) const
{
    const std::uint32_t shards = numShards();
    // Refit the buffer: entries keep their index/offset capacity, so
    // warm callers (the dense frontend's per-thread scratch) stop
    // allocating once the per-shard arrays reached steady size.
    out->resize(shards); // ERC_HOT_PATH_ALLOW("refit to shard count; no-op for a warm caller buffer")
    for (auto &lookup : *out) {
        lookup.indices.clear();
        lookup.offsets.clear();
    }
    const std::size_t batch = in.batchSize();
    // The inverse permutation is read at random: prefetch it a fixed
    // distance ahead over the flat index array, across batch items.
    for (std::size_t pos = 0; pos < kPrefetchDistance; ++pos)
        prefetchInverse(inversePerm_, in.indices, pos);

    for (std::size_t b = 0; b < batch; ++b) {
        // Each batch item opens a new offset entry in every shard
        // (Figure 11(b): both shards keep offsets for input 0 and 1).
        for (std::uint32_t s = 0; s < shards; ++s) {
            (*out)[s].offsets.push_back( // ERC_HOT_PATH_ALLOW("amortized: shard buffers reuse capacity across queries")
                static_cast<std::uint32_t>((*out)[s].indices.size()));
        }
        const std::size_t begin = in.offsets[b];
        const std::size_t end =
            (b + 1 < batch) ? in.offsets[b + 1] : in.indices.size();
        ERC_CHECK(begin <= end && end <= in.indices.size(),
                  "offset array is not monotone within the index array");
        for (std::size_t i = begin; i < end; ++i) {
            prefetchInverse(inversePerm_, in.indices, i + kPrefetchDistance);
            const std::uint64_t rank = rankOf(in.indices[i]);
            const auto it = std::upper_bound(boundaries_.begin(),
                                             boundaries_.end(), rank);
            const auto s = static_cast<std::uint32_t>(
                it - boundaries_.begin());
            const std::uint64_t shard_begin =
                s == 0 ? 0 : boundaries_[s - 1];
            // Rebase to a shard-local ID (the "subtract the size of the
            // preceding shards" step of Figure 11).
            (*out)[s].indices.push_back( // ERC_HOT_PATH_ALLOW("amortized: shard buffers reuse capacity across queries")
                static_cast<std::uint32_t>(rank - shard_begin));
        }
    }
}

} // namespace erec::core
