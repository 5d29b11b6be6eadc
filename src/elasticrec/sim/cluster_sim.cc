#include "elasticrec/sim/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/rpc/message.h"

namespace erec::sim {

namespace {

// Interned once at static-init time; trace records carry the ids.
const obs::NameId kQueryName = obs::internSpanName("query");
const obs::NameId kMonoQueueName = obs::internSpanName("mono/queue");
const obs::NameId kMonoServiceName =
    obs::internSpanName("mono/service");
const obs::NameId kDenseQueueName = obs::internSpanName("dense/queue");
const obs::NameId kDenseComputeName =
    obs::internSpanName("dense/compute");

/** Child slots under the root query span. Sparse deployment k owns
 *  the (2 + 2k, 3 + 2k) request/response pair, so every traced query
 *  of one plan produces the same structural span ids. */
constexpr unsigned kMonoQueueSlot = 0;
constexpr unsigned kMonoServiceSlot = 1;
constexpr unsigned kDenseQueueSlot = 0;
constexpr unsigned kDenseComputeSlot = 1;

constexpr unsigned
sparseRequestSlot(unsigned ordinal)
{
    return 2 + 2 * ordinal;
}

constexpr unsigned
sparseResponseSlot(unsigned ordinal)
{
    return 3 + 2 * ordinal;
}

// ERC_HOT_PATH_ALLOW("label construction for pod-scoped gauges: used at reap and per-pod sampling, never on the query path")
obs::Labels
podLabels(const std::string &deployment, std::uint64_t pod_id)
{
    return {{"deployment", deployment},
            {"pod", "pod-" + std::to_string(pod_id)}};
}

/** Allocation region charged by the gated query-path event handlers
 *  (kArrival, kRpcArrive, kStageDone, kComponentDone). */
AllocRegion &
simQueryRegion()
{
    static AllocRegion region("sim.query_path");
    return region;
}

} // namespace

ClusterSimulation::ClusterSimulation(const core::DeploymentPlan &plan,
                                     const hw::NodeSpec &node,
                                     workload::TrafficPattern traffic,
                                     SimOptions options)
    : traffic_(std::move(traffic)), options_(options),
      rng_(options.seed), arrivals_(traffic_, options.seed ^ 0xA551),
      channel_(node),
      scheduler_(node),
      slo_([this](const obs::SloSignal &signal, SimTime now) {
          return readSloSignal(signal, now);
      })
{
    ERC_CHECK(!plan.shards.empty(), "deployment plan has no shards");
    obsArrivals_ = &obs_.counter("erec_arrivals_total",
                                 "Queries arrived at the frontend.");
    const double initial_qps = traffic_.qpsAt(0);

    unsigned sparseCount = 0;
    for (const auto &spec : plan.shards) {
        const double hpa_target =
            spec.kind == core::ShardKind::SparseEmbedding
                ? spec.qpsPerReplica * kSparseUtilizationTarget
                : static_cast<double>(kSla) * kDenseLatencyTargetFraction;
        auto [it, inserted] =
            deployments_.try_emplace(spec.name, spec, hpa_target);
        ERC_CHECK(inserted, "duplicate deployment " << spec.name);
        DeploymentState &ds = it->second;
        // Start at the replica count the plan predicts for the
        // traffic's initial rate.
        setDesired(ds, core::DeploymentPlan::replicasForTarget(
                           spec, initial_qps));
        ds.hpa.bindObservability(obs_, spec.name);

        const obs::Labels labels = {{"deployment", spec.name}};
        ds.obsColdStarts = &obs_.counter(
            "erec_cold_starts_total",
            "Pods started cold (container boot + parameter load).",
            labels);
        ds.obsQueueDepth = &obs_.gauge(
            "erec_queue_depth",
            "Requests pending or in flight across the deployment.",
            labels);
        ds.obsUtilization = &obs_.gauge(
            "erec_utilization",
            "Fraction of ready-replica service capacity busy over the "
            "last sample interval.",
            labels);
        ds.obsReady = &obs_.gauge(
            "erec_ready_replicas", "Pods in the Ready state.", labels);
        ds.obsDesired = &obs_.gauge(
            "erec_desired_replicas",
            "Replica count the controller is converging toward.",
            labels);

        ds.balancer = std::make_unique<cluster::LoadBalancer>(
            options_.lbPolicy,
            options_.seed ^ std::hash<std::string>{}(spec.name));

        if (spec.kind == core::ShardKind::SparseEmbedding) {
            ds.nameRpcRequest =
                obs::internSpanName("rpc/" + spec.name + "/request");
            ds.nameRpcResponse =
                obs::internSpanName("rpc/" + spec.name + "/response");
            ds.nameSparseQueue =
                obs::internSpanName("sparse/" + spec.name + "/queue");
            ds.nameSparseService =
                obs::internSpanName("sparse/" + spec.name + "/service");
            ds.sparseOrdinal = sparseCount++;
            rpc::GatherRequest req;
            req.numIndices = static_cast<std::uint32_t>(
                std::ceil(spec.expectedGathers));
            req.numOffsets = plan.config.batchSize;
            rpc::GatherResponse resp;
            resp.batch = plan.config.batchSize;
            resp.dim = plan.config.embeddingDim;
            ds.requestBytes = req.wireBytes();
            ds.responseBytes = resp.wireBytes();
            // The channel model is pure: one-way leg times per
            // deployment are constants of the plan.
            ds.rpcOut = channel_.oneWay(ds.requestBytes);
            ds.rpcBack = channel_.oneWay(ds.responseBytes);
        }

        if (spec.kind == core::ShardKind::Dense ||
            spec.kind == core::ShardKind::Monolithic) {
            ERC_CHECK(frontend_ == nullptr,
                      "plan has more than one frontend shard");
            frontend_ = &ds;
        }
        ds.ordinal = static_cast<std::uint16_t>(depByOrdinal_.size());
        depByOrdinal_.push_back(&ds);
    }
    ERC_CHECK(frontend_ != nullptr, "plan has no frontend shard");
    numSparse_ = sparseCount;

    // Default SLO rules: mirror the control loop's own targets so a
    // run's verdict is "did the autoscaler hold the line".
    {
        obs::AlertRule p95;
        p95.name = "frontend-p95";
        p95.signal = {obs::SignalKind::P95, frontend_->spec.name};
        p95.threshold =
            units::toMillis(kSla) * kDenseLatencyTargetFraction;
        p95.holdFor = 5 * units::kSecond;
        slo_.addRule(std::move(p95));

        obs::AlertRule ratio;
        ratio.name = "sla-violation-ratio";
        ratio.signal = {obs::SignalKind::ViolationRatio,
                        frontend_->spec.name};
        ratio.threshold = 0.01;
        slo_.addRule(std::move(ratio));

        obs::AlertRule lost;
        lost.name = "lost-queries";
        lost.signal = {obs::SignalKind::LostQueries, ""};
        slo_.addRule(std::move(lost));
    }
    slo_.bindObservability(&obs_);
}

double
ClusterSimulation::readSloSignal(const obs::SloSignal &signal, SimTime now)
{
    // A deployment signal whose target names no deployment reads 0.
    const auto it = deployments_.find(signal.target);
    DeploymentState *ds =
        it == deployments_.end() ? nullptr : &it->second;
    switch (signal.kind) {
      case obs::SignalKind::P95:
        return ds == nullptr ? 0.0 : units::toMillis(p95Of(*ds, now));
      case obs::SignalKind::ViolationRatio: {
        const std::uint64_t done = ds == nullptr ? 0 : ds->qps.total();
        if (done == 0)
            return 0.0;
        return static_cast<double>(ds->slaViolations) /
               static_cast<double>(done);
      }
      case obs::SignalKind::Qps:
        return ds == nullptr ? 0.0 : ds->qps.rate(now);
      case obs::SignalKind::GaugeValue:
        return obs_.sum(signal.target);
      case obs::SignalKind::LostQueries:
        return static_cast<double>(lostQueries_);
    }
    return 0.0;
}

ClusterSimulation::DeploymentState &
ClusterSimulation::state(const std::string &name)
{
    auto it = deployments_.find(name);
    ERC_ASSERT(it != deployments_.end(),
               "unknown deployment " << name);
    return it->second;
}

void
ClusterSimulation::setDesired(DeploymentState &ds, std::uint32_t n)
{
    ds.desired = std::clamp(n, kMinReplicas, kMaxReplicas);
}

SimTime
ClusterSimulation::p95Of(const DeploymentState &ds, SimTime now)
{
    return static_cast<SimTime>(ds.latency.quantile(now, 0.95));
}

void
ClusterSimulation::setFixedReplicas(const std::string &deployment,
                                    std::uint32_t replicas)
{
    auto &ds = state(deployment);
    setDesired(ds, replicas);
    ds.fixed = true;
}

void
ClusterSimulation::injectPodFailure(const std::string &deployment,
                                    SimTime t, std::uint32_t count)
{
    state(deployment); // validate the name early
    plannedFailures_.push_back({deployment, t, count});
}

std::uint32_t
ClusterSimulation::readyReplicas(const DeploymentState &ds) const
{
    std::uint32_t n = 0;
    for (const auto &p : ds.pods)
        if (p->state() == PodState::Ready)
            ++n;
    return n;
}

Bytes
ClusterSimulation::liveMemory() const
{
    Bytes total = 0;
    for (const auto &[name, ds] : deployments_)
        total += Bytes{ds.pods.size()} * ds.spec.memBytes;
    return total;
}

std::uint32_t
ClusterSimulation::liveNodes() const
{
    // The pod population changes on add/reap only; between changes the
    // bin-pack result is a pure function of it, so reuse the cache.
    if (!packDirty_)
        return packedNodes_;
    std::vector<cluster::PodGroup> groups;
    groups.reserve(deployments_.size());
    for (const auto &[name, ds] : deployments_)
        groups.push_back(
            {&ds.spec, static_cast<std::uint32_t>(ds.pods.size())});
    packedNodes_ = scheduler_.countNodes(std::move(groups));
    packDirty_ = false;
    return packedNodes_;
}

double
ClusterSimulation::jitter()
{
    if (options_.serviceJitterSigma <= 0)
        return 1.0;
    return std::exp(rng_.normal(0.0, options_.serviceJitterSigma));
}

void
ClusterSimulation::addPod(DeploymentState &ds, bool instant)
{
    auto pod = std::make_unique<Pod>(nextPodId_++, ds.spec.stageLatencies);
    Pod *raw = pod.get();
    ds.pods.push_back(std::move(pod));
    packDirty_ = true;
    if (instant) {
        raw->markReady();
        return;
    }
    ds.obsColdStarts->inc();
    // Cold start: container scheduling plus loading this shard's
    // parameters into memory. The ready event carries the pod id, not
    // the pointer: the pod may be terminated — even reaped — while
    // starting, and the handler looks it up before touching it.
    const SimTime load = units::fromSeconds(
        static_cast<double>(ds.spec.memBytes) / kModelLoadBandwidth);
    queue_.scheduleAfter(kPodStartBase + load,
                         EventType::kPodReady, raw->id(), ds.ordinal);
}

void
ClusterSimulation::podReady(std::uint64_t pod_id, std::uint16_t ordinal)
{
    DeploymentState &ds = *depByOrdinal_[ordinal];
    Pod *raw = nullptr;
    for (const auto &p : ds.pods) {
        if (p->id() == pod_id) {
            raw = p.get();
            break;
        }
    }
    // The pod may have been terminated (or reaped) while starting.
    if (raw == nullptr || raw->state() != PodState::Starting)
        return;
    raw->markReady();
    // Drain any requests that queued while no pod was ready.
    while (!ds.pending.empty()) {
        const WorkItem item = ds.pending.pop();
        dispatch(ds, item);
    }
}

void
ClusterSimulation::removePod(DeploymentState &ds)
{
    // Prefer terminating a pod that is still starting, else the ready
    // pod with the least in-flight work.
    Pod *victim = nullptr;
    for (const auto &p : ds.pods) {
        if (p->state() == PodState::Starting) {
            victim = p.get();
            break;
        }
    }
    if (victim == nullptr) {
        for (const auto &p : ds.pods) {
            if (p->state() != PodState::Ready)
                continue;
            if (victim == nullptr ||
                p->inFlight() < victim->inFlight())
                victim = p.get();
        }
    }
    if (victim == nullptr)
        return; // Nothing removable (all already terminating).

    victim->markTerminating();
    for (const auto &item : victim->stealQueued())
        dispatch(ds, item);
    reapDrained(ds);
}

// ERC_HOT_PATH_ALLOW("reap allocates (gauge label removal) only when a drained or crash-settled pod is actually destroyed — a scale-down/crash consequence, not a per-query step")
void
ClusterSimulation::reapDrained(DeploymentState &ds)
{
    const auto removed =
        std::erase_if(ds.pods, [this, &ds](const std::unique_ptr<Pod> &p) {
            if (!p->removable())
                return false;
            lostQueries_ += p->lostItems();
            // Keep the utilization accounting and the export clean:
            // carry the dead pod's busy time, drop its per-pod gauge.
            ds.reapedBusy += p->busyTime();
            obs_.remove("erec_pod_queue_depth",
                        podLabels(ds.spec.name, p->id()));
            return true;
        });
    if (removed != 0)
        packDirty_ = true;
}

void
ClusterSimulation::dispatch(DeploymentState &ds, const WorkItem &item)
{
    // Route across ready replicas with the configured policy
    // (Linkerd's default is power-of-two-choices). The candidate list
    // is a member scratch vector: cleared per call, capacity bounded
    // by the largest deployment's pod count.
    lbScratch_.clear();
    for (std::uint32_t i = 0; i < ds.pods.size(); ++i) {
        if (ds.pods[i]->state() == PodState::Ready) {
            // ERC_HOT_PATH_ALLOW("scratch vector reuses capacity across dispatches; bounded by the pod count, it stops growing once the fleet peaks")
            lbScratch_.push_back({i, ds.pods[i]->inFlight()});
        }
    }
    if (lbScratch_.empty()) {
        ds.pending.push(item);
        return;
    }
    const auto chosen = ds.balancer->pick(lbScratch_);
    ds.pods[chosen]->submit(queue_, *this, item);
}

void
ClusterSimulation::startQuery()
{
    DeploymentState &fe = *frontend_;
    const SimTime arrival = queue_.now();
    const bool monolithic = fe.spec.kind == core::ShardKind::Monolithic;

    // Deterministic every-Nth sampling (trace id = arrival index + 1):
    // no RNG draw, no extra events, so traced and untraced runs play
    // out identically.
    obs::TraceContext root;
    if (options_.traceSampleEvery != 0 &&
        samplerArrivals_++ % options_.traceSampleEvery == 0)
        root = {samplerArrivals_, obs::kRootSpanId};

    if (monolithic) {
        WorkItem item;
        item.jitter = jitter();
        item.t0 = arrival;
        item.ctx = arena_.allocate(arrival, 1, root);
        item.dep = fe.ordinal;
        item.kind = WorkKind::Mono;
        item.trace = root;
        dispatch(fe, item);
        return;
    }

    // ElasticRec: the dense shard computes its MLP while the gather
    // RPCs fan out to every sparse shard; the query completes when the
    // dense compute and the slowest shard round trip have both
    // finished. The arena slot carries the fan-in state.
    const std::uint32_t slot =
        arena_.allocate(arrival, 1 + numSparse_, root);

    // Dense leg: overlaps the bottom-MLP compute with the gathers.
    {
        WorkItem item;
        item.jitter = jitter();
        item.t0 = arrival;
        item.ctx = slot;
        item.dep = fe.ordinal;
        item.kind = WorkKind::DenseLeg;
        if (root.sampled())
            item.trace = root.child(kDenseComputeSlot);
        dispatch(fe, item);
    }

    // Sparse legs: request network delay, shard service, response
    // network delay. The kRpcArrive event stands in for the request
    // leg's network flight.
    for (DeploymentState *dsp : depByOrdinal_) {
        DeploymentState &ds = *dsp;
        if (ds.spec.kind != core::ShardKind::SparseEmbedding)
            continue;
        queue_.scheduleAfter(ds.rpcOut, EventType::kRpcArrive, slot,
                             ds.ordinal);
    }
}

void
ClusterSimulation::rpcArrive(std::uint32_t slot, std::uint16_t ordinal)
{
    DeploymentState &ds = *depByOrdinal_[ordinal];
    const SimTime rpc_arrive = queue_.now();
    WorkItem item;
    item.jitter = jitter();
    item.t0 = rpc_arrive;
    item.ctx = slot;
    item.dep = ordinal;
    item.kind = WorkKind::SparseLeg;
    // The RPC leg's context rides on the work item exactly as the
    // functional stack propagates it in the GatherRequest header;
    // shard-side spans hang under the request span.
    const obs::TraceContext rpc =
        arena_.root(slot).child(sparseRequestSlot(ds.sparseOrdinal));
    if (rpc.sampled()) {
        item.trace = rpc;
        tracedRpcArrive(ds, slot, rpc, rpc_arrive);
    }
    dispatch(ds, item);
}

void
ClusterSimulation::onArrival()
{
    ++result_.arrivals;
    obsArrivals_->inc();
    startQuery();
    scheduleNextArrival();
}

void
ClusterSimulation::workStarted(const WorkItem &item, SimTime start)
{
    if (arena_.root(item.ctx).sampled())
        tracedWorkStarted(item, start);
}

void
ClusterSimulation::workDone(const WorkItem &item, SimTime done)
{
    switch (item.kind) {
      case WorkKind::Mono:
        monoDone(item, done);
        break;
      case WorkKind::DenseLeg:
        if (arena_.root(item.ctx).sampled())
            tracedDenseDone(item, done);
        componentDone(item.ctx, done);
        break;
      case WorkKind::SparseLeg:
        sparseLegDone(item, done);
        break;
      case WorkKind::None:
        break;
    }
}

void
ClusterSimulation::workLost(const WorkItem &item)
{
    // A leg died with its pod: the query can never complete, but its
    // slot must still wait for every other leg to account before it
    // recycles (pending kComponentDone events refer to it).
    arena_.markDead(item.ctx);
    if (arena_.accountLeg(item.ctx))
        arena_.release(item.ctx);
}

void
ClusterSimulation::bindCompletionCounters(DeploymentState &ds)
{
    const obs::Labels labels = {{"deployment", ds.spec.name}};
    ds.obsCompletions = &obs_.counter(
        "erec_completions_total", "Completed queries per deployment.",
        labels);
    ds.obsSlaViolations = &obs_.counter(
        "erec_sla_violations_total",
        "Completions that exceeded the SLA bound.", labels);
    ds.obsLatencyMs = &obs_.histogram(
        "erec_latency_ms", "End-to-end query latency in milliseconds.",
        obs::defaultLatencyBucketsMs(), labels);
}

// ERC_HOT_PATH_ALLOW("completion recording: the counters bind once per deployment, at its first completion, and the rate and latency windows recycle their storage, so growth is amortized; the sim's AllocGate pins the gated query path at zero at runtime")
void
ClusterSimulation::recordCompletion(DeploymentState &ds, SimTime now,
                                    SimTime latency)
{
    if (ds.obsCompletions == nullptr)
        bindCompletionCounters(ds);
    ds.qps.add(now);
    ds.latency.add(now, static_cast<double>(latency));
    ds.obsCompletions->inc();
    ds.obsLatencyMs->observe(static_cast<double>(latency) /
                             static_cast<double>(units::kMillisecond));
}

void
ClusterSimulation::completeQuery(SimTime done, SimTime latency)
{
    recordCompletion(*frontend_, done, latency);
    // ERC_HOT_PATH_ALLOW("DDSketch insert: bucket storage extends only on first sight of a value range; steady-state inserts are allocation-free and the AllocGate pins them")
    latencyAll_.insert(units::toMillis(latency));
    ++result_.completed;
    if (latency > kSla) {
        ++frontend_->slaViolations;
        frontend_->obsSlaViolations->inc();
        ++result_.slaViolations;
    }
}

void
ClusterSimulation::monoDone(const WorkItem &item, SimTime done)
{
    const std::uint32_t slot = item.ctx;
    completeQuery(done, done - arena_.arrival(slot));
    if (arena_.root(slot).sampled())
        tracedMonoDone(item, done);
    arena_.release(slot);
}

void
ClusterSimulation::sparseLegDone(const WorkItem &item, SimTime done)
{
    DeploymentState &ds = *depByOrdinal_[item.dep];
    recordCompletion(ds, done, 0);
    if (arena_.root(item.ctx).sampled())
        tracedSparseDone(item, done);
    reapDrained(ds);
    // Response leg flies back; fan-in happens when it lands.
    queue_.schedule(done + ds.rpcBack, EventType::kComponentDone,
                    item.ctx);
}

void
ClusterSimulation::componentDone(std::uint32_t slot, SimTime done)
{
    arena_.noteDone(slot, done);
    if (!arena_.accountLeg(slot))
        return;
    if (arena_.dead(slot)) {
        // A sibling leg was lost: no completion, just recycle.
        arena_.release(slot);
        return;
    }
    const SimTime last = arena_.lastDone(slot);
    completeQuery(last, last - arena_.arrival(slot));
    if (arena_.root(slot).sampled())
        tracedQueryDone(slot);
    arena_.release(slot);
}

/** Record one causal span: the context's structural id fixes its
 *  position in the query's span tree. */
// ERC_HOT_PATH_ALLOW("span storage appends to the sampled query's trace; runs only for traced queries, which are excluded from the zero-alloc pin")
void
ClusterSimulation::recordSpan(const obs::TraceContext &ctx,
                              obs::NameId name, SimTime start,
                              SimTime end)
{
    spans_.push_back({.traceId = ctx.traceId,
                      .spanId = ctx.spanId,
                      .parentId = obs::parentSpanId(ctx.spanId),
                      .startUs = start,
                      .endUs = end,
                      .name = name});
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedWorkStarted(const WorkItem &item, SimTime start)
{
    const obs::TraceContext root = arena_.root(item.ctx);
    switch (item.kind) {
      case WorkKind::Mono:
        recordSpan(root.child(kMonoQueueSlot), kMonoQueueName, item.t0,
                   start);
        break;
      case WorkKind::DenseLeg:
        recordSpan(root.child(kDenseQueueSlot), kDenseQueueName,
                   item.t0, start);
        break;
      case WorkKind::SparseLeg:
        recordSpan(item.trace.child(0),
                   depByOrdinal_[item.dep]->nameSparseQueue, item.t0,
                   start);
        break;
      case WorkKind::None:
        break;
    }
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedMonoDone(const WorkItem &item, SimTime done)
{
    const obs::TraceContext root = arena_.root(item.ctx);
    recordSpan(root.child(kMonoServiceSlot), kMonoServiceName,
               item.svcStart, done);
    recordSpan(root, kQueryName, arena_.arrival(item.ctx), done);
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedDenseDone(const WorkItem &item, SimTime done)
{
    recordSpan(item.trace, kDenseComputeName, item.svcStart, done);
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedRpcArrive(const DeploymentState &ds,
                                   std::uint32_t slot,
                                   obs::TraceContext rpc,
                                   SimTime rpc_arrive)
{
    recordSpan(rpc, ds.nameRpcRequest, arena_.arrival(slot), rpc_arrive);
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedSparseDone(const WorkItem &item, SimTime done)
{
    const DeploymentState &ds = *depByOrdinal_[item.dep];
    recordSpan(item.trace.child(1), ds.nameSparseService, item.svcStart,
               done);
    recordSpan(arena_.root(item.ctx).child(
                   sparseResponseSlot(ds.sparseOrdinal)),
               ds.nameRpcResponse, done, done + ds.rpcBack);
}

// ERC_HOT_PATH_ALLOW("span recording runs only for sampled queries; the sampled path is excluded from the zero-alloc pin by design")
void
ClusterSimulation::tracedQueryDone(std::uint32_t slot)
{
    recordSpan(arena_.root(slot), kQueryName, arena_.arrival(slot),
               arena_.lastDone(slot));
}

void
ClusterSimulation::scheduleNextArrival()
{
    const SimTime next = arrivals_.nextAfter(queue_.now());
    if (next > endTime_)
        return;
    queue_.schedule(next, EventType::kArrival);
}

void
ClusterSimulation::onFailure(std::size_t failure_idx)
{
    const PlannedFailure &failure = plannedFailures_[failure_idx];
    auto &ds = state(failure.deployment);
    for (std::uint32_t k = 0; k < failure.count; ++k) {
        // Crash the most-loaded ready pod (worst case).
        Pod *victim = nullptr;
        for (const auto &p : ds.pods) {
            if (p->state() != PodState::Ready)
                continue;
            if (victim == nullptr ||
                p->inFlight() > victim->inFlight())
                victim = p.get();
        }
        if (victim == nullptr)
            break;
        for (const auto &item : victim->crash(*this))
            dispatch(ds, item);
        reapDrained(ds);
    }
}

void
ClusterSimulation::hpaTick()
{
    const SimTime now = queue_.now();
    // Plan order throughout: it fixes pod ids and event order.
    if (options_.autoscale) {
        for (DeploymentState *dsp : depByOrdinal_) {
            DeploymentState &ds = *dsp;
            if (ds.fixed)
                continue;
            const std::uint32_t ready = readyReplicas(ds);
            if (ready == 0)
                continue;
            double measured = 0.0;
            if (ds.spec.kind == core::ShardKind::SparseEmbedding) {
                measured =
                    ds.qps.rate(now) / static_cast<double>(ready);
            } else {
                measured = static_cast<double>(p95Of(*frontend_, now));
            }
            setDesired(ds, ds.hpa.reconcile(now, ready, measured));
        }
    }

    // Reconcile pod counts toward desired (fixed deployments too).
    for (DeploymentState *dsp : depByOrdinal_) {
        DeploymentState &ds = *dsp;
        reapDrained(ds);
        std::uint32_t live = 0;
        for (const auto &p : ds.pods)
            if (p->state() == PodState::Ready ||
                p->state() == PodState::Starting)
                ++live;
        while (live < ds.desired) {
            addPod(ds, false);
            ++live;
        }
        while (live > ds.desired) {
            removePod(ds);
            --live;
        }
    }

    if (now + kHpaSyncPeriod <= endTime_)
        queue_.scheduleAfter(kHpaSyncPeriod, EventType::kHpaTick);
}

void
ClusterSimulation::sampleTick(SimTime end)
{
    const SimTime now = queue_.now();
    result_.targetQps.add(now, traffic_.qpsAt(now));
    result_.achievedQps.add(now, frontend_->qps.rate(now));
    const Bytes mem = liveMemory();
    result_.memoryGiB.add(now, units::toGiB(mem));
    result_.peakMemory = std::max(result_.peakMemory, mem);
    result_.p95LatencyMs.add(now, units::toMillis(p95Of(*frontend_, now)));
    std::uint32_t ready = 0;
    for (const auto &[name, ds] : deployments_)
        ready += readyReplicas(ds);
    result_.readyReplicas.add(now, ready);
    const std::uint32_t nodes = liveNodes();
    result_.nodesInUse.add(now, nodes);
    result_.peakNodes = std::max(result_.peakNodes, nodes);

    // Publish per-deployment (and, in compat mode, per-pod) gauges
    // for the export.
    for (auto &[name, ds] : deployments_) {
        std::uint32_t depth =
            static_cast<std::uint32_t>(ds.pending.size());
        SimTime busy = ds.reapedBusy;
        std::uint32_t dep_ready = 0;
        for (const auto &p : ds.pods) {
            depth += p->inFlight();
            busy += p->busyTime();
            if (p->state() == PodState::Ready) {
                ++dep_ready;
                if (options_.sampling == SamplingMode::CompatTick)
                    obs_.gauge(
                            "erec_pod_queue_depth",
                            "Requests queued or in service at one pod.",
                            podLabels(name, p->id()))
                        .set(p->inFlight());
            }
        }
        ds.obsQueueDepth->set(depth);
        ds.obsReady->set(dep_ready);
        ds.obsDesired->set(ds.desired);
        const auto stages =
            static_cast<double>(ds.spec.stageLatencies.size());
        const double capacity =
            static_cast<double>(kSampleInterval) *
            static_cast<double>(dep_ready) * stages;
        const double util =
            capacity > 0
                ? static_cast<double>(busy - ds.lastBusySample) /
                      capacity
                : 0.0;
        ds.obsUtilization->set(util);
        ds.lastBusySample = busy;
    }

    slo_.evaluate(now);

    if (now + kSampleInterval <= end)
        queue_.scheduleAfter(kSampleInterval, EventType::kSampleTick);
}

void
ClusterSimulation::onEvent(const EventRecord &event)
{
    switch (event.type) {
      case EventType::kArrival: {
        const AllocGate gate(simQueryRegion());
        onArrival();
        break;
      }
      case EventType::kRpcArrive: {
        const AllocGate gate(simQueryRegion());
        rpcArrive(static_cast<std::uint32_t>(event.a),
                  static_cast<std::uint16_t>(event.b));
        break;
      }
      case EventType::kStageDone: {
        const AllocGate gate(simQueryRegion());
        reinterpret_cast<Pod *>(static_cast<std::uintptr_t>(event.a))
            ->stageDone(queue_, *this,
                        static_cast<std::size_t>(event.b));
        break;
      }
      case EventType::kComponentDone: {
        const AllocGate gate(simQueryRegion());
        componentDone(static_cast<std::uint32_t>(event.a),
                      queue_.now());
        break;
      }
      case EventType::kPodReady:
        podReady(event.a, static_cast<std::uint16_t>(event.b));
        break;
      case EventType::kHpaTick:
        hpaTick();
        break;
      case EventType::kSampleTick:
        sampleTick(endTime_);
        break;
      case EventType::kFailure:
        onFailure(static_cast<std::size_t>(event.a));
        break;
      case EventType::kGeneric:
        break;
    }
}

SimResult
ClusterSimulation::run(SimTime duration)
{
    ERC_CHECK(duration > 0, "simulation duration must be positive");
    result_ = SimResult{};
    latencyAll_.clear();
    lostQueries_ = 0;
    endTime_ = duration;
    slo_.reset();

    // Baseline the scale-event counters so result_ reports only this
    // run's events even when the simulation object is reused.
    std::map<std::string, std::uint64_t> scaleBaseline;
    for (const auto &[name, ds] : deployments_)
        scaleBaseline[name] =
            ds.hpa.scaleUpEvents() + ds.hpa.scaleDownEvents();

    // Instantiate the initial replica set, ready at t = 0, in plan
    // order (it fixes the pod ids).
    for (DeploymentState *ds : depByOrdinal_)
        while (ds->pods.size() < ds->desired)
            addPod(*ds, true);

    for (std::size_t i = 0; i < plannedFailures_.size(); ++i)
        queue_.schedule(plannedFailures_[i].time, EventType::kFailure,
                        i);

    scheduleNextArrival();
    queue_.scheduleAfter(kHpaSyncPeriod, EventType::kHpaTick);
    sampleTick(duration);
    queue_.runUntil(duration, *this);

    result_.meanLatencyMs = latencyAll_.mean();
    result_.p95LatencyOverallMs = latencyAll_.quantile(0.95);
    for (const auto &[name, ds] : deployments_) {
        for (const auto &p : ds.pods)
            lostQueries_ += p->lostItems();
        result_.finalReplicas[name] =
            static_cast<std::uint32_t>(ds.pods.size());
        const std::uint64_t events = ds.hpa.scaleUpEvents() +
                                     ds.hpa.scaleDownEvents() -
                                     scaleBaseline[name];
        result_.scaleEventsByDeployment[name] = events;
        result_.scaleEvents += events;
    }
    obs_.gauge("erec_lost_queries",
                "Queries whose in-flight work died with a crashed pod.")
        .set(static_cast<double>(lostQueries_));
    return result_;
}

} // namespace erec::sim
