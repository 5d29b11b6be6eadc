/**
 * @file
 * Tests for embedding table storage and the gather+pool kernel, in both
 * materialized and virtual storage modes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/embedding/embedding_table.h"

namespace erec::embedding {
namespace {

TEST(EmbeddingTableTest, ByteAccounting)
{
    EmbeddingTable t(1000, 32);
    EXPECT_EQ(t.rowBytes(), 128u);
}

TEST(EmbeddingTableTest, GatherPoolSumsRows)
{
    EmbeddingTable t(16, 4);
    // Batch of 2: item 0 gathers rows {1, 3}, item 1 gathers {2}.
    std::vector<std::uint32_t> indices = {1, 3, 2};
    std::vector<std::uint32_t> offsets = {0, 2};
    std::vector<float> out(2 * 4);
    EXPECT_EQ(t.gatherPool({indices, offsets}, out.data()), 3u);
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out[d], t.at(1, d) + t.at(3, d));
        EXPECT_FLOAT_EQ(out[4 + d], t.at(2, d));
    }
}

TEST(EmbeddingTableTest, EmptyItemPoolsToZero)
{
    EmbeddingTable t(8, 4);
    // Item 0 has no gathers, item 1 gathers row 5.
    std::vector<std::uint32_t> indices = {5};
    std::vector<std::uint32_t> offsets = {0, 0};
    std::vector<float> out(2 * 4, 99.0f);
    t.gatherPool({indices, offsets}, out.data());
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out[d], 0.0f);
        EXPECT_FLOAT_EQ(out[4 + d], t.at(5, d));
    }
}

TEST(EmbeddingTableTest, VirtualRowsAreDeterministic)
{
    EmbeddingTable a(1000, 8, Storage::Virtual, 7);
    EmbeddingTable b(1000, 8, Storage::Virtual, 7);
    std::vector<float> ra(8), rb(8);
    a.readRow(123, ra.data());
    b.readRow(123, rb.data());
    EXPECT_EQ(ra, rb);
    // Different seed -> different values.
    EmbeddingTable c(1000, 8, Storage::Virtual, 8);
    std::vector<float> rc(8);
    c.readRow(123, rc.data());
    EXPECT_NE(ra, rc);
}

TEST(EmbeddingTableTest, VirtualGatherMatchesReadRow)
{
    EmbeddingTable t(100, 4, Storage::Virtual);
    std::vector<std::uint32_t> indices = {10, 20};
    std::vector<std::uint32_t> offsets = {0};
    std::vector<float> out(4);
    t.gatherPool({indices, offsets}, out.data());
    std::vector<float> r10(4), r20(4);
    t.readRow(10, r10.data());
    t.readRow(20, r20.data());
    for (int d = 0; d < 4; ++d)
        EXPECT_FLOAT_EQ(out[d], r10[d] + r20[d]);
}

TEST(EmbeddingTableTest, ValuesInInitRange)
{
    EmbeddingTable t(100, 16);
    for (std::uint64_t r = 0; r < 100; ++r) {
        for (std::uint32_t d = 0; d < 16; ++d) {
            EXPECT_GE(t.at(r, d), -0.05f);
            EXPECT_LE(t.at(r, d), 0.05f);
        }
    }
}

TEST(EmbeddingTableTest, RejectsOutOfRangeAccess)
{
    EmbeddingTable t(10, 4);
    std::vector<float> row(4);
    EXPECT_THROW(t.readRow(10, row.data()), ConfigError);
    std::vector<std::uint32_t> indices = {10};
    std::vector<std::uint32_t> offsets = {0};
    std::vector<float> out(4);
    EXPECT_THROW(t.gatherPool({indices, offsets}, out.data()),
                 ConfigError);
}

TEST(EmbeddingTableTest, RejectsOversizedMaterialization)
{
    EXPECT_THROW(EmbeddingTable(100'000'000, 64),
                 ConfigError);
}

} // namespace
} // namespace erec::embedding
