/**
 * @file
 * Tests for HugePageBuffer (src/elasticrec/common/huge_page_buffer.h):
 * large arrays come back 2 MiB-aligned and huge-page advised, small and
 * empty arrays take the heap and null paths, contents start zeroed, and
 * a move leaves exactly one owner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "elasticrec/common/huge_page_buffer.h"

namespace erec {
namespace {

std::uintptr_t
addressOf(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

bool
allZero(const HugePageBuffer<std::uint32_t> &buf)
{
    for (const std::uint32_t v : buf)
        if (v != 0)
            return false;
    return true;
}

TEST(HugePageBufferTest, LargeArraysAreHugePageAligned)
{
    // Exactly 2 MiB, and a length that is not a multiple of the page.
    for (const std::size_t n :
         {kHugePageBytes / 4, 3 * kHugePageBytes / 4 + 17}) {
        HugePageBuffer<std::uint32_t> buf(n);
        ASSERT_EQ(buf.size(), n);
        EXPECT_EQ(buf.hugePageBacked(), hugePagesSupported());
        if (hugePagesSupported()) {
            EXPECT_EQ(addressOf(buf.data()) % kHugePageBytes, 0u) << n;
        }
        EXPECT_TRUE(allZero(buf));
        // Every element is writable, the last one included.
        std::iota(buf.begin(), buf.end(), 0u);
        EXPECT_EQ(buf[n - 1], n - 1);
    }
}

TEST(HugePageBufferTest, SmallArraysUseTheHeap)
{
    HugePageBuffer<std::uint32_t> buf(1000);
    ASSERT_EQ(buf.size(), 1000u);
    ASSERT_NE(buf.data(), nullptr);
    EXPECT_FALSE(buf.hugePageBacked());
    EXPECT_EQ(addressOf(buf.data()) % 64, 0u);
    EXPECT_TRUE(allZero(buf));
    buf[999] = 7;
    EXPECT_EQ(buf[999], 7u);
}

TEST(HugePageBufferTest, ZeroSizeHoldsNoMemory)
{
    const HugePageBuffer<float> sized(0);
    const HugePageBuffer<float> defaulted;
    for (const auto *buf : {&sized, &defaulted}) {
        EXPECT_TRUE(buf->empty());
        EXPECT_EQ(buf->size(), 0u);
        EXPECT_EQ(buf->data(), nullptr);
        EXPECT_EQ(buf->begin(), buf->end());
        EXPECT_FALSE(buf->hugePageBacked());
    }
    const std::vector<float> none;
    EXPECT_TRUE(HugePageBuffer<float>(none.data(), 0).empty());
}

TEST(HugePageBufferTest, CopiesItsSource)
{
    std::vector<std::uint32_t> src(kHugePageBytes / 4 + 5);
    std::iota(src.begin(), src.end(), 11u);
    const HugePageBuffer<std::uint32_t> big(src.data(), src.size());
    EXPECT_TRUE(std::equal(big.begin(), big.end(), src.begin(), src.end()));
    const HugePageBuffer<std::uint32_t> small(src.data(), 3);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), src.begin(),
                           src.begin() + 3));
}

TEST(HugePageBufferTest, MoveLeavesExactlyOneOwner)
{
    for (const std::size_t n : {std::size_t{10}, kHugePageBytes / 4}) {
        HugePageBuffer<std::uint32_t> a(n);
        a[n - 1] = 42;
        const std::uint32_t *storage = a.data();
        const bool backed = a.hugePageBacked();

        HugePageBuffer<std::uint32_t> b(std::move(a));
        EXPECT_EQ(b.data(), storage);
        EXPECT_EQ(b.size(), n);
        EXPECT_EQ(b.hugePageBacked(), backed);
        EXPECT_EQ(a.data(), nullptr);
        EXPECT_TRUE(a.empty());
        EXPECT_FALSE(a.hugePageBacked());

        // Move-assignment releases the target's own storage (ASan
        // reports a leak otherwise) and takes the source's.
        HugePageBuffer<std::uint32_t> c(5);
        c = std::move(b);
        EXPECT_EQ(c.data(), storage);
        EXPECT_EQ(c[n - 1], 42u);
        EXPECT_EQ(b.data(), nullptr);
        EXPECT_EQ(b.size(), 0u);
    }
}

} // namespace
} // namespace erec
