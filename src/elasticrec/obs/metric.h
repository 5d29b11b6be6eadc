#pragma once

/**
 * @file
 * Labelled metric registry: the in-process stand-in for the Prometheus
 * metrics server the paper's testbed scrapes (Section V). Components
 * register counter/gauge/histogram families under stable names, attach
 * label sets (deployment, pod, direction, ...) and publish through the
 * returned child handles; exporters walk the registry and render it as
 * Prometheus text format or feed dashboards.
 *
 * Handles returned by counter()/gauge()/histogram() are stable for the
 * registry's lifetime, so hot paths resolve once and then pay a single
 * pointer-chase per update. All containers are ordered maps keyed by
 * metric name and canonical label string, which makes exports
 * byte-deterministic for deterministic simulations.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace erec::obs {

/** One metric child's labels, in the caller's (stable) order. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonically increasing value (completions, scale events, ...). */
class Counter
{
  public:
    void inc(double delta = 1.0) { value_ += delta; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Point-in-time value (queue depth, replica count, utilization). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double delta) { value_ += delta; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Fixed-bucket histogram with explicit upper bounds, Prometheus-style:
 * bucket i counts samples with bounds[i-1] < x <= bounds[i]; samples
 * above the last bound land in the implicit +Inf overflow bucket.
 */
class Histogram
{
  public:
    /** @param bounds Strictly increasing bucket upper bounds. */
    explicit Histogram(std::vector<double> bounds);

    /** Record one sample. NaN is dropped and negative values saturate
     *  to zero (latencies cannot be negative) so sum() stays sane. */
    void observe(double x);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Non-cumulative count of bucket i (i == bounds().size() is the
     *  +Inf overflow bucket). */
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_; //!< bounds_.size() + 1 entries.
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

const char *toString(MetricKind kind);

/**
 * Fixed latency buckets in milliseconds, spanning sub-millisecond RPC
 * legs up to multiples of the paper's 400 ms SLA.
 */
const std::vector<double> &defaultLatencyBucketsMs();

class Registry
{
  public:
    /** One labelled child of a family. Exactly one pointer is set,
     *  matching the family's kind. */
    struct Child
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    /** A named family of same-kind children (one per label set). */
    struct Family
    {
        std::string name;
        std::string help;
        MetricKind kind = MetricKind::Counter;
        /** Histogram bucket bounds (histogram families only). */
        std::vector<double> bounds;
        /** Children keyed by canonical label rendering. */
        std::map<std::string, Child> children;
    };

    /**
     * Find-or-create the counter `name` with `labels`. The name must
     * match [a-zA-Z_:][a-zA-Z0-9_:]*; re-registering with a different
     * kind is a ConfigError.
     */
    Counter &counter(const std::string &name, const std::string &help,
                     const Labels &labels = {});

    /** Find-or-create a gauge child. */
    Gauge &gauge(const std::string &name, const std::string &help,
                 const Labels &labels = {});

    /**
     * Find-or-create a histogram child. All children of one family
     * share the bucket bounds passed at first registration.
     */
    Histogram &histogram(const std::string &name, const std::string &help,
                         const std::vector<double> &bounds,
                         const Labels &labels = {});

    /**
     * Drop one child (e.g. a per-pod gauge when the pod is reaped) so
     * exports stop reporting stale series. No-op when absent.
     */
    void remove(const std::string &name, const Labels &labels);

    /** Families keyed by metric name, for exporters. */
    const std::map<std::string, Family> &families() const
    {
        return families_;
    }

    /**
     * Value of a counter/gauge child, or 0 when the family or child
     * does not exist (mirrors Prometheus' absent-series semantics).
     */
    double value(const std::string &name, const Labels &labels = {}) const;

    /** Sum of value() over every label set of a counter/gauge family
     *  (0 when the family does not exist). */
    double sum(const std::string &name) const;

    /** Canonical `k="v",...` rendering used as the child map key. */
    static std::string labelKey(const Labels &labels);

  private:
    Family &family(const std::string &name, const std::string &help,
                   MetricKind kind);
    Child &child(Family &fam, const Labels &labels);

    std::map<std::string, Family> families_;
};

} // namespace erec::obs
