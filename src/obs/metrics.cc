#include "obs/metrics.h"

#include "common/logging.h"
#include "obs/json.h"

namespace hybridtier {
namespace {

void AppendQuoted(std::ostream& out, const std::string& text) {
  out << '"';
  AppendJsonEscaped(out, text);
  out << '"';
}

}  // namespace

double MetricRegistry::Scalar::Current() const {
  if (counter) return static_cast<double>(counter->value());
  if (gauge) return gauge->value();
  if (probe) return probe();
  return 0.0;
}

MetricRegistry::Scalar* MetricRegistry::FindScalar(const std::string& name) {
  for (Scalar& scalar : scalars_) {
    if (scalar.name == name) return &scalar;
  }
  return nullptr;
}

const std::vector<double>* MetricRegistry::Series(
    const std::string& name) const {
  for (const Scalar& scalar : scalars_) {
    if (scalar.name == name) return &scalar.series;
  }
  return nullptr;
}

const HistogramMetric* MetricRegistry::FindHistogram(
    const std::string& name) const {
  for (const Histogram& histogram : histograms_) {
    if (histogram.name == name) return histogram.histogram.get();
  }
  return nullptr;
}

std::vector<std::string> MetricRegistry::ScalarNames() const {
  std::vector<std::string> names;
  names.reserve(scalars_.size());
  for (const Scalar& scalar : scalars_) names.push_back(scalar.name);
  return names;
}

Counter* MetricRegistry::AddCounter(const std::string& name) {
  if (Scalar* existing = FindScalar(name)) {
    HT_ASSERT(existing->counter != nullptr,
              "metric re-registered with a different type: ", name);
    return existing->counter.get();
  }
  Scalar scalar;
  scalar.name = name;
  scalar.counter = std::make_unique<Counter>();
  Counter* handle = scalar.counter.get();
  scalars_.push_back(std::move(scalar));
  return handle;
}

Gauge* MetricRegistry::AddGauge(const std::string& name) {
  if (Scalar* existing = FindScalar(name)) {
    HT_ASSERT(existing->gauge != nullptr,
              "metric re-registered with a different type: ", name);
    return existing->gauge.get();
  }
  Scalar scalar;
  scalar.name = name;
  scalar.gauge = std::make_unique<Gauge>();
  Gauge* handle = scalar.gauge.get();
  scalars_.push_back(std::move(scalar));
  return handle;
}

HistogramMetric* MetricRegistry::AddHistogram(const std::string& name) {
  for (Histogram& histogram : histograms_) {
    if (histogram.name == name) return histogram.histogram.get();
  }
  Histogram histogram;
  histogram.name = name;
  histogram.histogram = std::make_unique<HistogramMetric>();
  HistogramMetric* handle = histogram.histogram.get();
  histograms_.push_back(std::move(histogram));
  return handle;
}

void MetricRegistry::AddProbe(const std::string& name,
                              std::function<double()> probe) {
  if (Scalar* existing = FindScalar(name)) {
    existing->probe = std::move(probe);
    return;
  }
  Scalar scalar;
  scalar.name = name;
  scalar.probe = std::move(probe);
  scalars_.push_back(std::move(scalar));
}

void MetricRegistry::Snapshot(TimeNs now) {
  if (!times_ns_.empty() && times_ns_.back() == now) return;
  times_ns_.push_back(now);
  for (Scalar& scalar : scalars_) {
    scalar.series.push_back(scalar.Current());
  }
}

size_t HistogramMetric::MaxBucket() const {
  size_t max_bucket = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] > 0) max_bucket = i;
  }
  return max_bucket;
}

void MetricRegistry::WriteJsonObject(std::ostream& out) const {
  out << "{\n  \"times_ns\": [";
  for (size_t i = 0; i < times_ns_.size(); ++i) {
    if (i > 0) out << ",";
    out << times_ns_[i];
  }
  out << "],\n  \"series\": {";
  bool first = true;
  for (const Scalar& scalar : scalars_) {
    if (!first) out << ",";
    first = false;
    out << "\n    ";
    AppendQuoted(out, scalar.name);
    out << ": [";
    for (size_t i = 0; i < scalar.series.size(); ++i) {
      if (i > 0) out << ",";
      AppendJsonNumber(out, scalar.series[i]);
    }
    out << "]";
  }
  out << "\n  },\n  \"final\": {";
  first = true;
  for (const Scalar& scalar : scalars_) {
    if (!first) out << ",";
    first = false;
    out << "\n    ";
    AppendQuoted(out, scalar.name);
    out << ": ";
    // Use the last snapshot, not a live read: probes may capture
    // objects already destroyed by serialization time.
    AppendJsonNumber(out, scalar.series.empty() ? 0.0 : scalar.series.back());
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const Histogram& histogram : histograms_) {
    if (!first) out << ",";
    first = false;
    const HistogramMetric& h = *histogram.histogram;
    out << "\n    ";
    AppendQuoted(out, histogram.name);
    out << ": {\"count\": " << h.count() << ", \"sum\": " << h.sum()
        << ", \"buckets\": [";
    const size_t top = h.count() > 0 ? h.MaxBucket() : 0;
    for (size_t i = 0; i <= top; ++i) {
      if (i > 0) out << ",";
      out << h.bucket(i);
    }
    out << "]}";
  }
  out << "\n  }\n}";
}

void MetricRegistry::WriteJson(std::ostream& out) const {
  WriteJsonObject(out);
  out << "\n";
}

void MetricRegistry::WriteCsv(std::ostream& out) const {
  out << "time_ns";
  for (const Scalar& scalar : scalars_) {
    out << "," << scalar.name;
  }
  out << "\n";
  for (size_t row = 0; row < times_ns_.size(); ++row) {
    out << times_ns_[row];
    for (const Scalar& scalar : scalars_) {
      out << ",";
      AppendJsonNumber(out, row < scalar.series.size() ? scalar.series[row]
                                                       : 0.0);
    }
    out << "\n";
  }
}

}  // namespace hybridtier
