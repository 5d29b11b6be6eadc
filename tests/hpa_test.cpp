/**
 * @file
 * Tests for the Horizontal Pod Autoscaler control law (Section IV-D).
 */

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/cluster/hpa.h"

namespace erec::cluster {
namespace {

TEST(HpaTest, ScalesUpProportionally)
{
    Hpa hpa(100.0);
    // 4 replicas at 150 QPS each -> desired = ceil(4 * 1.5) = 6.
    EXPECT_EQ(hpa.reconcile(0, 4, 150.0), 6u);
}

TEST(HpaTest, DeadBandHolds)
{
    Hpa hpa(100.0);
    EXPECT_EQ(hpa.reconcile(0, 4, 105.0), 4u); // within 10% tolerance
    EXPECT_EQ(hpa.reconcile(0, 4, 95.0), 4u);
}

TEST(HpaTest, ScaleUpRateLimited)
{
    Hpa hpa(100.0);
    // Measured 100x over target would naively ask for 400 replicas;
    // the Kubernetes-style policy caps at max(2x, +4).
    EXPECT_EQ(hpa.reconcile(0, 4, 10000.0), 8u);
    // For tiny deployments the +4 term dominates.
    Hpa hpa2(100.0);
    EXPECT_EQ(hpa2.reconcile(0, 1, 10000.0), 5u);
}

TEST(HpaTest, ScaleDownStabilized)
{
    ASSERT_EQ(Hpa::kStabilizationWindow, 180 * units::kSecond);
    Hpa hpa(100.0);
    // High recommendation at t=0.
    EXPECT_EQ(hpa.reconcile(0, 4, 200.0), 8u);
    // Load drops; within the window the earlier recommendation (8)
    // floors the scale-down, but current=8 caps it at 8.
    EXPECT_EQ(hpa.reconcile(15 * units::kSecond, 8, 10.0), 8u);
    EXPECT_EQ(hpa.reconcile(120 * units::kSecond, 8, 10.0), 8u);
    // Once the t=0 and t=15 s recommendations leave the 180 s window
    // the scale-down proceeds.
    EXPECT_EQ(hpa.reconcile(200 * units::kSecond, 8, 10.0), 1u);
}

TEST(HpaTest, NeverBelowOneReplica)
{
    Hpa hpa(100.0);
    EXPECT_GE(hpa.reconcile(1000 * units::kSecond, 1, 0.001), 1u);
}

TEST(HpaTest, LatencyMetricSameLaw)
{
    Hpa hpa(260000.0); // 260 ms in us (65% of a 400 ms SLA)
    // Measured P95 of 520 ms -> ratio 2 -> double the replicas.
    EXPECT_EQ(hpa.reconcile(0, 3, 520000.0), 6u);
}

TEST(HpaTest, RejectsBadPolicy)
{
    EXPECT_THROW(Hpa{0.0}, ConfigError);
    EXPECT_THROW(Hpa{-1.0}, ConfigError);
}

TEST(HpaTest, ReconcileRequiresReplicas)
{
    Hpa hpa(10.0);
    EXPECT_THROW(hpa.reconcile(0, 0, 5.0), ConfigError);
}

} // namespace
} // namespace erec::cluster
