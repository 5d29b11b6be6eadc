/**
 * @file
 * Tests for the metrics registry and deployment bookkeeping.
 */

#include <gtest/gtest.h>

#include "elasticrec/cluster/deployment.h"
#include "elasticrec/cluster/metrics.h"

namespace erec::cluster {
namespace {

TEST(MetricsRegistryTest, QpsWindow)
{
    MetricsRegistry m(10 * units::kSecond);
    for (int i = 0; i < 100; ++i)
        m.recordCompletion("svc", i * 100 * units::kMillisecond,
                           units::kMillisecond);
    // 10 completions/sec over the trailing window.
    EXPECT_NEAR(m.qps("svc", 10 * units::kSecond), 10.0, 1.0);
    EXPECT_EQ(m.completions("svc"), 100u);
}

TEST(MetricsRegistryTest, LatencyQuantile)
{
    MetricsRegistry m;
    for (int i = 1; i <= 100; ++i)
        m.recordCompletion("svc", units::kSecond,
                           i * units::kMillisecond);
    const SimTime p95 =
        m.latencyQuantile("svc", units::kSecond, 0.95);
    EXPECT_NEAR(units::toMillis(p95), 95.0, 1.0);
}

TEST(MetricsRegistryTest, UnknownSeriesIsZero)
{
    MetricsRegistry m;
    EXPECT_EQ(m.completions("nope"), 0u);
    EXPECT_EQ(m.slaViolations("nope"), 0u);
    EXPECT_DOUBLE_EQ(m.qps("nope", 0), 0.0);
}

TEST(MetricsRegistryTest, ReadsNeverCreateSeries)
{
    // qps()/latencyQuantile() on an unknown deployment must not insert
    // an empty Series as a side effect: deployments() stays empty and
    // repeated reads keep returning zero.
    MetricsRegistry m;
    EXPECT_DOUBLE_EQ(m.qps("ghost", 10 * units::kSecond), 0.0);
    EXPECT_EQ(m.latencyQuantile("ghost", units::kSecond, 0.95), 0);
    EXPECT_TRUE(m.deployments().empty());
    m.recordCompletion("real", units::kSecond, units::kMillisecond);
    EXPECT_EQ(m.deployments(), std::vector<std::string>{"real"});
}

TEST(MetricsRegistryTest, DeploymentsAreSorted)
{
    MetricsRegistry m;
    m.recordCompletion("zeta", units::kSecond, 1);
    m.recordSlaViolation("alpha");
    m.recordCompletion("mid", units::kSecond, 1);
    const std::vector<std::string> expect = {"alpha", "mid", "zeta"};
    EXPECT_EQ(m.deployments(), expect);
}

TEST(MetricsRegistryTest, MirrorsIntoObservabilityRegistry)
{
    obs::Registry registry;
    MetricsRegistry m;
    m.bindObservability(&registry);
    m.recordCompletion("svc", units::kSecond,
                       5 * units::kMillisecond);
    m.recordCompletion("svc", units::kSecond,
                       800 * units::kMillisecond);
    m.recordSlaViolation("svc");
    EXPECT_DOUBLE_EQ(registry.value("erec_completions_total",
                                    {{"deployment", "svc"}}),
                     2.0);
    EXPECT_DOUBLE_EQ(registry.value("erec_sla_violations_total",
                                    {{"deployment", "svc"}}),
                     1.0);
}

TEST(MetricsRegistryTest, BindRebindsExistingSeries)
{
    // Series created before the bind are published retroactively on
    // their next update; detaching stops publication.
    MetricsRegistry m;
    m.recordCompletion("svc", units::kSecond, units::kMillisecond);
    obs::Registry registry;
    m.bindObservability(&registry);
    m.recordCompletion("svc", 2 * units::kSecond,
                       units::kMillisecond);
    EXPECT_DOUBLE_EQ(registry.value("erec_completions_total",
                                    {{"deployment", "svc"}}),
                     1.0);
    m.bindObservability(nullptr);
    m.recordCompletion("svc", 3 * units::kSecond,
                       units::kMillisecond);
    EXPECT_DOUBLE_EQ(registry.value("erec_completions_total",
                                    {{"deployment", "svc"}}),
                     1.0);
}

TEST(MetricsRegistryTest, SlaViolations)
{
    MetricsRegistry m;
    m.recordSlaViolation("svc");
    m.recordSlaViolation("svc");
    EXPECT_EQ(m.slaViolations("svc"), 2u);
}

TEST(DeploymentTest, ClampsDesiredReplicas)
{
    core::ShardSpec spec;
    spec.name = "d";
    Deployment d(spec, 3);
    EXPECT_EQ(d.desiredReplicas(), 3u);
    d.setDesiredReplicas(1000);
    EXPECT_EQ(d.desiredReplicas(), 256u);
    d.setDesiredReplicas(0);
    EXPECT_EQ(d.desiredReplicas(), 1u);
    d.setDesiredReplicas(256);
    EXPECT_EQ(d.desiredReplicas(), 256u);
}

TEST(DeploymentTest, ResourceRequestFromSpec)
{
    core::ShardSpec spec;
    spec.name = "d";
    spec.cpuCores = 4;
    spec.memBytes = 123;
    spec.usesGpu = true;
    const auto req = resourceRequestFor(spec);
    EXPECT_EQ(req.cpuCores, 4u);
    EXPECT_EQ(req.memBytes, 123u);
    EXPECT_TRUE(req.gpu);
}

} // namespace
} // namespace erec::cluster
