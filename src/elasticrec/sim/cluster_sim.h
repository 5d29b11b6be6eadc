#pragma once

/**
 * @file
 * Cluster-scale serving simulation.
 *
 * Binds together a deployment plan (ElasticRec or a baseline), the
 * hardware platform, a traffic pattern, load balancing, the RPC fabric
 * and Kubernetes-style autoscaling, and plays inference traffic through
 * it as a discrete-event simulation:
 *
 *   arrival -> frontend LB -> dense (or monolithic) pod
 *            -> scatter: per-shard gather RPC -> sparse LB -> pod
 *            -> gather: all responses merged -> completion
 *
 * ElasticRec's dense shard overlaps its bottom-MLP compute with the
 * gather RPCs (Section IV-A), so a query's processing time at the
 * frontend is max(dense compute, slowest shard round trip). The
 * monolithic baseline runs dense and sparse as two pipelined stages
 * inside one pod and pays no network.
 *
 * The HPA controller reconciles every sync period: sparse deployments
 * scale on QPS-per-replica against their stress-tested QPS_max
 * (Section IV-D), dense/monolithic deployments scale on P95 latency
 * against 65% of the SLA. New pods charge a cold-start delay that
 * includes loading their parameters at a fixed bandwidth — the term
 * that makes baseline scale-out sluggish in Figure 19.
 *
 * ## Event engine
 *
 * The simulation is the EventSink of a POD-record event queue and the
 * PodSink of every pod: queries fan out as typed events (kArrival,
 * kRpcArrive, kStageDone, kComponentDone) whose payloads are query
 * arena slots and deployment ordinals, never captured closures. The
 * steady query path performs zero heap allocations (AllocGate-pinned
 * by the sim throughput gate and walked statically by erec_analyze);
 * sampling, HPA reconciliation, SLO evaluation and failure injection
 * are events of the same queue. DESIGN.md §13 documents the taxonomy
 * and the arena lifetime rules.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elasticrec/cluster/deployment.h"
#include "elasticrec/cluster/hpa.h"
#include "elasticrec/cluster/load_balancer.h"
#include "elasticrec/cluster/metrics.h"
#include "elasticrec/cluster/scheduler.h"
#include "elasticrec/common/ring.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/common/stats.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/obs/flight_recorder.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/sketch.h"
#include "elasticrec/obs/slo.h"
#include "elasticrec/rpc/channel.h"
#include "elasticrec/sim/event_queue.h"
#include "elasticrec/sim/pod.h"
#include "elasticrec/sim/query_arena.h"
#include "elasticrec/workload/traffic.h"

namespace erec::sim {

/**
 * How the per-interval sample tick publishes telemetry.
 *
 * Both modes sample on event time (a kSampleTick event per interval)
 * and produce identical SimResults; they differ only in per-pod gauge
 * export. CompatTick publishes an `erec_pod_queue_depth` gauge per
 * ready pod each tick — the legacy export surface, kept byte-stable
 * for the fig19 golden and the telemetry smoke. EventTime skips the
 * per-pod gauges (their label strings are the one remaining per-tick
 * allocation source), which is what the million-query throughput
 * harness runs. Both stay because perfbench sets EventTime; once
 * ROADMAP item 2 stops it, item 9 folds them into one mode.
 */
enum class SamplingMode
{
    CompatTick,
    EventTime,
};

struct SimOptions
{
    /** End-to-end SLA bound (the paper uses 400 ms). */
    SimTime sla = 400 * units::kMillisecond;
    /** Dense/monolithic HPA latency target as a fraction of the SLA. */
    double denseLatencyTargetFraction = 0.65;
    /**
     * Sparse HPA target utilization: scale out when per-replica QPS
     * exceeds this fraction of the shard's QPS_max.
     */
    double sparseUtilizationTarget = 0.70;
    /** HPA sync period. */
    SimTime hpaSyncPeriod = 15 * units::kSecond;
    /** Scale-down stabilization window. */
    SimTime hpaStabilization = 180 * units::kSecond;
    /** Container cold-start latency excluding parameter loading. */
    SimTime podStartBase = 2 * units::kSecond;
    /** Parameter-load bandwidth during pod start (bytes/sec). */
    double modelLoadBandwidth = 1e9;
    /** Multiplicative service-time jitter (lognormal sigma). */
    double serviceJitterSigma = 0.05;
    /** Metrics sampling interval for the result time series. */
    SimTime sampleInterval = units::kSecond;
    /** Enable the HPA (disable for fixed-replica steady-state runs). */
    bool autoscale = true;
    /**
     * Start each deployment with the replica count the plan predicts
     * for the traffic pattern's initial rate (otherwise start at 1).
     */
    bool warmStart = true;
    /** Load-balancing policy across a deployment's ready replicas. */
    cluster::LbPolicy lbPolicy = cluster::LbPolicy::PowerOfTwoChoices;
    /** RNG seed. */
    std::uint64_t seed = 2024;
    /**
     * Trace one query in every `traceSampleEvery` arrivals (0 = off,
     * 100 = 1% sampling) into ClusterSimulation::traces(). Sampling is
     * deterministic and consumes no randomness, so traced and untraced
     * runs produce identical SimResults.
     */
    std::uint32_t traceSampleEvery = 0;
    /** Telemetry publication mode of the sample tick. */
    SamplingMode sampling = SamplingMode::CompatTick;
    /**
     * Exportable metrics registry to publish into. When null the
     * simulation creates its own (reachable via observability()).
     */
    std::shared_ptr<obs::Registry> observability = {};
};

/** Aggregate results of one simulation run. */
struct SimResult
{
    /** Sampled time series (time in SimTime, value units noted). */
    TimeSeries targetQps;
    TimeSeries achievedQps;
    TimeSeries memoryGiB;
    TimeSeries p95LatencyMs;
    TimeSeries readyReplicas;
    TimeSeries nodesInUse;

    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t slaViolations = 0;
    double meanLatencyMs = 0.0;
    double p95LatencyOverallMs = 0.0;
    Bytes peakMemory = 0;
    std::uint32_t peakNodes = 0;
    /** Final replica count per deployment. */
    std::map<std::string, std::uint32_t> finalReplicas;
    /** HPA desired-count changes during the run (up + down). */
    std::uint64_t scaleEvents = 0;
    std::map<std::string, std::uint64_t> scaleEventsByDeployment;
};

class ClusterSimulation final : private EventSink, private PodSink
{
  public:
    ClusterSimulation(core::DeploymentPlan plan, hw::NodeSpec node,
                      workload::TrafficPattern traffic,
                      SimOptions options);

    /** Fix a deployment's replica count (implies no HPA for it). */
    void setFixedReplicas(const std::string &deployment,
                          std::uint32_t replicas);

    /**
     * Failure injection: at simulated time t, crash `count` pods of a
     * deployment. Crashed pods vanish immediately; their queued work
     * is re-dispatched, in-flight work is lost (those queries never
     * complete), and the HPA/reconciler replaces the capacity on its
     * next tick. Call before run().
     */
    void injectPodFailure(const std::string &deployment, SimTime t,
                          std::uint32_t count = 1);

    /** Queries whose in-flight work died with a crashed pod. */
    std::uint64_t lostQueries() const { return lostQueries_; }

    /**
     * Run until simulated time `duration` and collect results. Calling
     * run() again continues the same simulation to a later end time:
     * the returned SimResult covers that call only, while the registry,
     * the trace sampler and traces() carry over.
     */
    SimResult run(SimTime duration);

    /** Total events the engine has executed since construction (all
     *  runs); the throughput bench reports events per query from it. */
    std::uint64_t eventsExecuted() const { return queue_.executed(); }

    const core::DeploymentPlan &plan() const { return plan_; }

    /** Exportable metrics registry (shared with SimOptions' owner). */
    obs::Registry &observability() { return *obs_; }

    /**
     * Spans of the sampled queries, in record order, stamped in sim-µs
     * (obs::buildSpanTrees assembles them per query; a query's root
     * span closes at its completion). Like the registry counters, the
     * sampling counter and this buffer carry over across run() calls,
     * so a trace id (arrival index + 1) is never reused within one
     * simulation object.
     */
    const std::vector<obs::SpanEvent> &traces() const { return spans_; }

    /**
     * SLO alert engine, evaluated once per sample tick. Three default
     * rules watch the frontend (p95 against the dense HPA target held
     * for 5 s, cumulative SLA-violation ratio above 1%, any lost
     * queries); add more with slo().addRule() before run().
     */
    obs::SloTracker &slo() { return slo_; }
    const std::vector<obs::AlertEvent> &alertEvents() const
    {
        return slo_.events();
    }

  private:
    struct DeploymentState
    {
        std::unique_ptr<cluster::Deployment> deployment;
        std::unique_ptr<cluster::Hpa> hpa;
        std::vector<std::unique_ptr<Pod>> pods;
        Ring<WorkItem> pending; //!< Waiting for a ready pod.
        std::unique_ptr<cluster::LoadBalancer> balancer;
        bool fixed = false;
        /** Position in the plan's shard order; WorkItems and event
         *  payloads carry this instead of the deployment name. */
        std::uint16_t ordinal = 0;
        /** Wire bytes of one request/response to this deployment. */
        Bytes requestBytes = 0;
        Bytes responseBytes = 0;
        /** One-way RPC leg times for those sizes, precomputed (the
         *  channel model is pure, so per-query evaluation is waste). */
        SimTime rpcOut = 0;
        SimTime rpcBack = 0;
        /** Completion-series handle, resolved lazily at first record
         *  so export registration order matches the by-name path. */
        cluster::MetricsRegistry::Series *series = nullptr;
        /** Causal span names ("rpc/<dep>/request", ...), interned once
         *  at construction so traced queries record ids, never build
         *  strings. Sparse deployments only. */
        obs::NameId nameRpcRequest = obs::kInvalidNameId;
        obs::NameId nameRpcResponse = obs::kInvalidNameId;
        obs::NameId nameSparseQueue = obs::kInvalidNameId;
        obs::NameId nameSparseService = obs::kInvalidNameId;
        /** Ordinal among the plan's sparse deployments; fixes this
         *  deployment's child-slot pair under the root query span. */
        unsigned sparseOrdinal = 0;
        // Exported telemetry handles (owned by obs_).
        obs::Counter *obsColdStarts = nullptr;
        obs::Gauge *obsQueueDepth = nullptr;
        obs::Gauge *obsUtilization = nullptr;
        obs::Gauge *obsReady = nullptr;
        obs::Gauge *obsDesired = nullptr;
        /** Busy time carried by pods reaped since the run started. */
        SimTime reapedBusy = 0;
        /** Busy-time snapshot at the previous sample tick. */
        SimTime lastBusySample = 0;
    };

    // EventSink: route a typed event to its handler.
    void onEvent(const EventRecord &event) override;

    // PodSink: per-leg lifecycle, static dispatch on item.kind.
    void workStarted(const WorkItem &item, SimTime start) override;
    ERC_HOT_PATH
    void workDone(const WorkItem &item, SimTime done) override;
    void workLost(const WorkItem &item) override;

    // Span recording for sampled queries (cold relative to the gated
    // query path; the hot handlers call these only when the query's
    // root context is sampled).
    void recordSpan(const obs::TraceContext &ctx, obs::NameId name,
                    SimTime start, SimTime end);
    void tracedWorkStarted(const WorkItem &item, SimTime start);
    void tracedMonoDone(const WorkItem &item, SimTime done);
    void tracedDenseDone(const WorkItem &item, SimTime done);
    void tracedRpcArrive(const DeploymentState &ds, std::uint32_t slot,
                         obs::TraceContext rpc, SimTime rpc_arrive);
    void tracedSparseDone(const WorkItem &item, SimTime done);
    void tracedQueryDone(std::uint32_t slot);

    DeploymentState &state(const std::string &name);
    double readSloSignal(const obs::SloSignal &signal, SimTime now);
    std::uint32_t readyReplicas(const DeploymentState &ds) const;
    Bytes liveMemory() const;
    std::uint32_t liveNodes() const;
    double jitter();

    void addPod(DeploymentState &ds, bool instant);
    void removePod(DeploymentState &ds);
    void reapDrained(DeploymentState &ds);
    void dispatch(DeploymentState &ds, const WorkItem &item);
    ERC_HOT_PATH
    void onArrival();
    ERC_HOT_PATH
    void rpcArrive(std::uint32_t slot, std::uint16_t ordinal);
    ERC_HOT_PATH
    void componentDone(std::uint32_t slot, SimTime done);
    void monoDone(const WorkItem &item, SimTime done);
    void sparseLegDone(const WorkItem &item, SimTime done);
    void podReady(std::uint64_t pod_id, std::uint16_t ordinal);
    void onFailure(std::size_t failure_idx);
    void scheduleNextArrival();
    void hpaTick();
    void sampleTick(SimTime end);
    void startQuery();

    core::DeploymentPlan plan_;
    hw::NodeSpec node_;
    workload::TrafficPattern traffic_;
    SimOptions options_;

    EventQueue queue_;
    Rng rng_;
    workload::PoissonArrivals arrivals_;
    rpc::Channel channel_;
    cluster::MetricsRegistry metrics_;
    cluster::Scheduler scheduler_;
    std::shared_ptr<obs::Registry> obs_;
    /** Arrivals seen by the trace sampler (all runs; counts only
     *  while tracing is on). */
    std::uint64_t samplerArrivals_ = 0;
    std::vector<obs::SpanEvent> spans_;
    obs::SloTracker slo_;
    obs::Counter *obsArrivals_ = nullptr;

    std::vector<std::string> deploymentOrder_;
    std::map<std::string, DeploymentState> deployments_;
    /** Plan-order view of deployments_ (map nodes are stable). */
    std::vector<DeploymentState *> depByOrdinal_;
    std::string frontendName_;
    DeploymentState *frontend_ = nullptr;
    cluster::MetricsRegistry::Series *frontendSeries_ = nullptr;
    std::uint32_t numSparse_ = 0;
    std::uint64_t nextPodId_ = 1;

    QueryArena arena_;
    /** Scratch for dispatch(): reused across calls, bounded by the
     *  largest deployment's pod count. */
    std::vector<cluster::LbCandidate> lbScratch_;

    /** Bin-pack result cache: the pod population changes only on pod
     *  add/reap, not per sample, so liveNodes() reuses the last pack
     *  until the set is dirtied. */
    mutable bool packDirty_ = true;
    mutable std::uint32_t packedNodes_ = 0;

    // Run-scoped accumulators.
    SimResult result_;
    /** Streaming sketch over all completion latencies (ms): exact
     *  count/mean, p95 within the sketch's 1% relative accuracy. */
    obs::QuantileSketch latencyAll_;
    SimTime endTime_ = 0;
    std::uint64_t lostQueries_ = 0;

    struct PlannedFailure
    {
        std::string deployment;
        SimTime time;
        std::uint32_t count;
    };
    std::vector<PlannedFailure> plannedFailures_;
};

} // namespace erec::sim
