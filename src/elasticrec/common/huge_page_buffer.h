#pragma once

/**
 * @file
 * Fixed-size, zero-initialized arrays placed for random access.
 *
 * The embedding path's big arrays (table rows, the hotness sort
 * permutation, the bucketizer's inverse permutation) are read at
 * random over hundreds of MiB, so on 4 KiB pages nearly every access
 * also misses the TLB. A HugePageBuffer of at least kHugePageBytes is
 * an anonymous mapping that starts on a 2 MiB boundary and is advised
 * MADV_HUGEPAGE before its first touch, so the kernel backs it with
 * transparent huge pages even in THP `madvise` mode. Smaller buffers,
 * and every buffer on a platform without MADV_HUGEPAGE, come from the
 * heap, cache-line aligned. DESIGN.md section 11 ("Memory placement")
 * has the behaviour under each THP mode and the RSS cost.
 *
 * Deliberately not a std::allocator: the buffer never grows, so it
 * needs no allocate/deallocate protocol, and allocation failure is an
 * ERC_CHECK (ConfigError) like every other resource error here.
 */

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace erec {

/** Transparent-huge-page size on x86-64 and arm64 (4 KiB base). */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {

/** Where a HugePageBuffer's bytes live; `mapped` is 0 for the heap. */
struct HugePageBlock
{
    void *base = nullptr;
    std::size_t mapped = 0;
};

/** Zeroed storage for `bytes` > 0 (see the file comment). Raises
 *  ConfigError when the memory cannot be obtained. */
HugePageBlock mapHugePageBlock(std::size_t bytes);

/** Return a block obtained from mapHugePageBlock (null is a no-op). */
void unmapHugePageBlock(HugePageBlock block);

} // namespace detail

/** True when this build can place buffers on huge pages. */
bool hugePagesSupported();

/**
 * A move-only array of `size()` trivially copyable T, zero-initialized.
 * Exactly one object owns the storage at a time; a moved-from buffer
 * is empty.
 */
template <typename T>
class HugePageBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "HugePageBuffer holds plain data only");

  public:
    HugePageBuffer() = default;

    /** `n` zeroed elements; no memory at all when n == 0. */
    explicit HugePageBuffer(std::size_t n) : size_(n)
    {
        if (n > 0)
            block_ = detail::mapHugePageBlock(n * sizeof(T));
    }

    /** A copy of src[0, n). */
    HugePageBuffer(const T *src, std::size_t n) : HugePageBuffer(n)
    {
        if (n > 0)
            std::memcpy(block_.base, src, n * sizeof(T));
    }

    HugePageBuffer(HugePageBuffer &&other) noexcept
        : block_(std::exchange(other.block_, {})),
          size_(std::exchange(other.size_, 0))
    {}

    HugePageBuffer &
    operator=(HugePageBuffer &&other) noexcept
    {
        if (this != &other) {
            detail::unmapHugePageBlock(block_);
            block_ = std::exchange(other.block_, {});
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    HugePageBuffer(const HugePageBuffer &) = delete;
    HugePageBuffer &operator=(const HugePageBuffer &) = delete;

    ~HugePageBuffer() { detail::unmapHugePageBlock(block_); }

    T *data() { return static_cast<T *>(block_.base); }
    const T *data() const { return static_cast<const T *>(block_.base); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    /** True when the storage is a 2 MiB-aligned, huge-page-advised
     *  mapping rather than heap memory. */
    bool hugePageBacked() const { return block_.mapped > 0; }

  private:
    detail::HugePageBlock block_;
    std::size_t size_ = 0;
};

} // namespace erec
