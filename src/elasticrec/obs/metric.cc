#include "elasticrec/obs/metric.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "elasticrec/common/error.h"

namespace erec::obs {

namespace {

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](unsigned char c) {
        return std::isalpha(c) || c == '_' || c == ':';
    };
    auto tail = [&head](unsigned char c) {
        return head(c) || std::isdigit(c);
    };
    if (!head(static_cast<unsigned char>(name.front())))
        return false;
    return std::all_of(name.begin() + 1, name.end(), [&tail](char c) {
        return tail(static_cast<unsigned char>(c));
    });
}

bool
validLabelName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](unsigned char c) { return std::isalpha(c) || c == '_'; };
    if (!head(static_cast<unsigned char>(name.front())))
        return false;
    return std::all_of(name.begin() + 1, name.end(), [&head](char c) {
        return head(static_cast<unsigned char>(c)) ||
               std::isdigit(static_cast<unsigned char>(c));
    });
}

/** A counter or gauge child's value; 0 for a histogram. */
double
childValue(const Registry::Child &child)
{
    if (child.counter)
        return child.counter->value();
    if (child.gauge)
        return child.gauge->value();
    return 0.0;
}

} // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    ERC_CHECK(!bounds_.empty(), "histogram needs at least one bucket");
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        ERC_CHECK(bounds_[i] > bounds_[i - 1],
                  "histogram bounds must be strictly increasing");
}

void
Histogram::observe(double x)
{
    if (std::isnan(x))
        return; // A NaN would poison sum() for the rest of the run.
    x = std::max(x, 0.0); // Latencies cannot be negative; saturate.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += x;
}

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

const std::vector<double> &
defaultLatencyBucketsMs()
{
    static const std::vector<double> kBuckets = {
        0.5, 1, 2, 5, 10, 20, 50, 100, 200, 400, 800, 1600, 3200};
    return kBuckets;
}

std::string
Registry::labelKey(const Labels &labels)
{
    std::string key;
    for (const auto &[k, v] : labels) {
        if (!key.empty())
            key += ',';
        key += k;
        key += "=\"";
        key += v;
        key += '"';
    }
    return key;
}

Registry::Family &
Registry::family(const std::string &name, const std::string &help,
                 MetricKind kind)
{
    auto it = families_.find(name);
    if (it == families_.end()) {
        ERC_CHECK(validMetricName(name),
                  "invalid metric name '" << name << "'");
        Family fam;
        fam.name = name;
        fam.help = help;
        fam.kind = kind;
        it = families_.emplace(name, std::move(fam)).first;
    }
    ERC_CHECK(it->second.kind == kind,
              "metric '" << name << "' re-registered as "
                         << toString(kind) << " but is "
                         << toString(it->second.kind));
    return it->second;
}

Registry::Child &
Registry::child(Family &fam, const Labels &labels)
{
    for (const auto &[k, v] : labels)
        ERC_CHECK(validLabelName(k),
                  "invalid label name '" << k << "' on metric '"
                                         << fam.name << "'");
    return fam.children[labelKey(labels)];
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  const Labels &labels)
{
    Family &fam = family(name, help, MetricKind::Counter);
    Child &c = child(fam, labels);
    if (!c.counter) {
        c.labels = labels;
        c.counter = std::make_unique<Counter>();
    }
    return *c.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                const Labels &labels)
{
    Family &fam = family(name, help, MetricKind::Gauge);
    Child &c = child(fam, labels);
    if (!c.gauge) {
        c.labels = labels;
        c.gauge = std::make_unique<Gauge>();
    }
    return *c.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    const std::vector<double> &bounds, const Labels &labels)
{
    Family &fam = family(name, help, MetricKind::Histogram);
    if (fam.bounds.empty())
        fam.bounds = bounds;
    ERC_CHECK(fam.bounds == bounds,
              "histogram '" << name
                            << "' re-registered with different buckets");
    Child &c = child(fam, labels);
    if (!c.histogram) {
        c.labels = labels;
        c.histogram = std::make_unique<Histogram>(fam.bounds);
    }
    return *c.histogram;
}

void
Registry::remove(const std::string &name, const Labels &labels)
{
    const auto it = families_.find(name);
    if (it == families_.end())
        return;
    it->second.children.erase(labelKey(labels));
}

double
Registry::value(const std::string &name, const Labels &labels) const
{
    const auto it = families_.find(name);
    if (it == families_.end())
        return 0.0;
    const auto child = it->second.children.find(labelKey(labels));
    return child == it->second.children.end() ? 0.0
                                              : childValue(child->second);
}

double
Registry::sum(const std::string &name) const
{
    const auto it = families_.find(name);
    double total = 0.0;
    if (it != families_.end())
        for (const auto &[key, child] : it->second.children)
            total += childValue(child);
    return total;
}

} // namespace erec::obs
