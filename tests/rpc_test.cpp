/**
 * @file
 * Tests for RPC message wire-size accounting and channel latency.
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/rpc/channel.h"
#include "elasticrec/rpc/message.h"

namespace erec::rpc {
namespace {

TEST(MessageTest, GatherRequestBytes)
{
    GatherRequest req;
    req.numIndices = 100;
    req.numOffsets = 32;
    EXPECT_EQ(req.wireBytes(), kMessageHeaderBytes + 4 * (100 + 32));
}

TEST(MessageTest, GatherResponseBytes)
{
    GatherResponse resp;
    resp.batch = 32;
    resp.dim = 32;
    EXPECT_EQ(resp.wireBytes(), kMessageHeaderBytes + 4 * 32 * 32);
}

TEST(MessageTest, InferenceMessages)
{
    InferenceRequest req;
    req.batch = 32;
    req.denseDim = 256;
    req.totalIndices = 4096;
    EXPECT_EQ(req.wireBytes(),
              kMessageHeaderBytes + 4ull * 32 * 256 + 4ull * 4096);
    InferenceResponse resp;
    resp.batch = 32;
    EXPECT_EQ(resp.wireBytes(), kMessageHeaderBytes + 4 * 32);
}

TEST(ChannelTest, OneWayIncludesAllTerms)
{
    hw::NetworkLink link(1e9, 100);
    Channel ch(link, 2e9, 150);
    // 1 MB: serialization 500 us + base 100 us + transfer 1000 us +
    // per-call 150 us.
    EXPECT_EQ(ch.oneWay(1'000'000), 150 + 500 + 100 + 1000);
}

TEST(ChannelTest, RoundTripIsBothLegs)
{
    hw::NetworkLink link(1e9, 100);
    Channel ch(link, 2e9, 150);
    EXPECT_EQ(ch.roundTrip(1000, 2000),
              ch.oneWay(1000) + ch.oneWay(2000));
}

TEST(ChannelTest, LargerMessagesTakeLonger)
{
    Channel ch(hw::NetworkLink(hw::cpuOnlyNode()));
    EXPECT_LT(ch.oneWay(100), ch.oneWay(1'000'000));
}

TEST(ChannelTest, RejectsBadParameters)
{
    hw::NetworkLink link(1e9, 0);
    EXPECT_THROW(Channel(link, 0.0, 10), ConfigError);
    EXPECT_THROW(Channel(link, 1e9, -5), ConfigError);
}

TEST(ChannelTest, ElasticRecOverheadRegime)
{
    // The per-query communication overhead added by ElasticRec's RPC
    // fan-out should be in the tens-of-milliseconds regime the paper
    // reports (31 ms CPU-only / 60 ms CPU-GPU) when accumulated over a
    // query's gather round trips, not per message.
    Channel ch(hw::NetworkLink(hw::cpuOnlyNode()));
    GatherRequest req;
    req.numIndices = 4096;
    req.numOffsets = 32;
    GatherResponse resp;
    resp.batch = 32;
    resp.dim = 32;
    const SimTime rt = ch.roundTrip(req.wireBytes(), resp.wireBytes());
    // One shard round trip costs single-digit milliseconds at most.
    EXPECT_LT(rt, 10 * units::kMillisecond);
    EXPECT_GT(rt, 100); // and is not free
}

} // namespace
} // namespace erec::rpc
