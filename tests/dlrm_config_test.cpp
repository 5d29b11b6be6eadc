/**
 * @file
 * Tests for the Table II workload configs and the Figure 3-style FLOP /
 * memory accounting.
 */

#include <gtest/gtest.h>

#include "elasticrec/model/dlrm_config.h"

namespace erec::model {
namespace {

TEST(DlrmConfigTest, TableIIParameters)
{
    const auto m1 = rm1();
    EXPECT_EQ(m1.bottomMlp.toString(), "256-128-32");
    EXPECT_EQ(m1.topMlp.toString(), "256-64-1");
    EXPECT_EQ(m1.numTables, 10u);
    EXPECT_EQ(m1.rowsPerTable, 20'000'000u);
    EXPECT_EQ(m1.embeddingDim, 32u);
    EXPECT_EQ(m1.poolingFactor, 128u);
    EXPECT_DOUBLE_EQ(m1.localityP, 0.90);

    const auto m2 = rm2();
    EXPECT_EQ(m2.topMlp.toString(), "512-128-1");
    EXPECT_EQ(m2.numTables, 32u);

    const auto m3 = rm3();
    EXPECT_EQ(m3.bottomMlp.toString(), "2560-512-32");
    EXPECT_EQ(m3.poolingFactor, 32u);
}

TEST(DlrmConfigTest, GathersPerQuery)
{
    EXPECT_EQ(rm1().gathersPerQueryPerTable(), 128u * 32);
    EXPECT_EQ(rm3().gathersPerQueryPerTable(), 32u * 32);
}

TEST(DlrmConfigTest, SparseFlopsAreSmallFraction)
{
    // Figure 3(a): sparse layers account for a minority of FLOPs
    // (RM2's 32 tables make it the largest of the three).
    for (const auto &config : tableIIModels()) {
        EXPECT_LT(config.sparseFlopsFraction(), 0.40) << config.name;
    }
    // And RM3 (heavy MLPs, small pooling) is the smallest.
    EXPECT_LT(rm3().sparseFlopsFraction(), rm1().sparseFlopsFraction());
}

TEST(DlrmConfigTest, DenseMemoryIsNegligible)
{
    // Figure 3(a): dense layers hold well under 1% of parameters.
    for (const auto &config : tableIIModels()) {
        EXPECT_LT(config.denseMemoryFraction(), 0.01) << config.name;
        EXPECT_GT(config.denseMemoryFraction(), 0.0);
    }
}

TEST(DlrmConfigTest, EmbeddingBytes)
{
    // 20M rows x 32 floats = 2.56 GB per table; RM1 has 10 tables.
    EXPECT_EQ(rm1().tableBytes(), 20'000'000ull * 128);
    EXPECT_EQ(rm1().embeddingBytes(), 10 * rm1().tableBytes());
    EXPECT_EQ(rm2().embeddingBytes(), 32 * rm2().tableBytes());
}

TEST(DlrmConfigTest, TouchFractionMatchesPaperClaim)
{
    // Section III-A: a pooling factor of ~100 touches ~0.001% of the
    // table per inference.
    const double f = rm1().embeddingTouchFraction();
    EXPECT_LT(f, 1e-5);
    EXPECT_GT(f, 1e-6);
}

TEST(DlrmConfigTest, MicrobenchmarkVariants)
{
    const auto light = microBenchmark(MlpSize::Light,
                                      LocalityLevel::High);
    const auto heavy = microBenchmark(MlpSize::Heavy,
                                      LocalityLevel::High);
    EXPECT_LT(light.denseFlopsPerQuery(), heavy.denseFlopsPerQuery());
    EXPECT_EQ(light.numTables, 10u);

    const auto low = microBenchmark(MlpSize::Medium, LocalityLevel::Low);
    EXPECT_DOUBLE_EQ(low.localityP, 0.10);
    EXPECT_DOUBLE_EQ(localityValue(LocalityLevel::Medium), 0.50);

    const auto n16 = microBenchmark(MlpSize::Medium,
                                    LocalityLevel::High, 16);
    EXPECT_EQ(n16.numTables, 16u);
    EXPECT_NE(n16.name.find("N16"), std::string::npos);
}

} // namespace
} // namespace erec::model
