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

/** A node whose NIC streams 1 GB/s after a 100 us base latency. */
hw::NodeSpec
gigabitNode()
{
    hw::NodeSpec node = hw::cpuOnlyNode();
    node.netBandwidth = 1e9;
    node.netBaseLatency = 100;
    return node;
}

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

TEST(ChannelTest, OneWayIncludesAllTerms)
{
    Channel ch(gigabitNode());
    // An empty message pays the per-call overhead and the base latency.
    EXPECT_EQ(ch.oneWay(0), 150 + 100);
    // 1 MB: serialization 500 us + base 100 us + transfer 1000 us +
    // per-call 150 us.
    EXPECT_EQ(ch.oneWay(1'000'000), 150 + 500 + 100 + 1000);
}

TEST(ChannelTest, RoundsSerializationAndTransferApart)
{
    Channel ch(gigabitNode());
    // 1500 B: serialization 0.75 us rounds to 1, transfer 1.5 us to 2.
    // One rounding of their 2.25 us sum would give 2, not 3.
    EXPECT_EQ(ch.oneWay(1500), 150 + 1 + 100 + 2);
}

TEST(ChannelTest, FromNodeSpec)
{
    // The paper node's 10 Gbps NIC streams 1.25 GB/s after 100 us.
    Channel ch(hw::cpuOnlyNode());
    EXPECT_EQ(ch.oneWay(0), 150 + 100);
    EXPECT_EQ(ch.oneWay(1'250'000), 150 + 625 + 100 + 1000);
}

TEST(ChannelTest, LargerMessagesTakeLonger)
{
    Channel ch(hw::cpuOnlyNode());
    EXPECT_LT(ch.oneWay(100), ch.oneWay(1'000'000));
}

TEST(ChannelTest, RejectsBadParameters)
{
    hw::NodeSpec no_bandwidth = gigabitNode();
    no_bandwidth.netBandwidth = 0.0;
    EXPECT_THROW(Channel{no_bandwidth}, ConfigError);
    hw::NodeSpec negative_latency = gigabitNode();
    negative_latency.netBaseLatency = -1;
    EXPECT_THROW(Channel{negative_latency}, ConfigError);
    hw::NodeSpec zero_latency = gigabitNode();
    zero_latency.netBaseLatency = 0;
    EXPECT_EQ(Channel(zero_latency).oneWay(0), 150);
}

TEST(ChannelTest, ElasticRecOverheadRegime)
{
    // The per-query communication overhead added by ElasticRec's RPC
    // fan-out should be in the tens-of-milliseconds regime the paper
    // reports (31 ms CPU-only / 60 ms CPU-GPU) when accumulated over a
    // query's gather round trips, not per message.
    Channel ch(hw::cpuOnlyNode());
    GatherRequest req;
    req.numIndices = 4096;
    req.numOffsets = 32;
    GatherResponse resp;
    resp.batch = 32;
    resp.dim = 32;
    const SimTime rt =
        ch.oneWay(req.wireBytes()) + ch.oneWay(resp.wireBytes());
    // One shard round trip costs single-digit milliseconds at most.
    EXPECT_LT(rt, 10 * units::kMillisecond);
    EXPECT_GT(rt, 100); // and is not free
}

} // namespace
} // namespace erec::rpc
