/**
 * @file
 * Unit tests for time/byte unit conversions and formatting.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/units.h"

namespace erec {
namespace {

TEST(UnitsTest, TimeConversions)
{
    EXPECT_EQ(units::kSecond, 1000000);
    EXPECT_DOUBLE_EQ(units::toSeconds(2 * units::kSecond), 2.0);
    EXPECT_DOUBLE_EQ(units::toMillis(units::kSecond), 1000.0);
    EXPECT_EQ(units::fromSeconds(1.5), 1500000);
    EXPECT_EQ(units::kMinute, 60 * units::kSecond);
}

TEST(UnitsTest, RoundTripSeconds)
{
    for (double s : {0.001, 0.5, 1.0, 123.456}) {
        EXPECT_NEAR(units::toSeconds(units::fromSeconds(s)), s, 1e-6);
    }
}

TEST(UnitsTest, ByteConversions)
{
    EXPECT_EQ(units::kMiB, 1024ull * 1024ull);
    EXPECT_DOUBLE_EQ(units::toGiB(2 * units::kGiB), 2.0);
    EXPECT_DOUBLE_EQ(units::toMiB(units::kGiB), 1024.0);
}

TEST(UnitsTest, FormatBytesPicksSuffix)
{
    EXPECT_EQ(units::formatBytes(512), "512 B");
    EXPECT_EQ(units::formatBytes(2 * units::kKiB), "2.00 KiB");
    EXPECT_EQ(units::formatBytes(3 * units::kMiB), "3.00 MiB");
    EXPECT_EQ(units::formatBytes(5 * units::kGiB), "5.00 GiB");
    EXPECT_EQ(units::formatBytes(units::kGiB + units::kGiB / 2),
              "1.50 GiB");
}

} // namespace
} // namespace erec
