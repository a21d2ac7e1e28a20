#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace hybridtier {

std::vector<double> LatencyHistogram::Quantiles(
    std::initializer_list<double> qs) const {
  std::vector<double> out(qs.size(), 0.0);
  if (count_ == 0) return out;
  std::vector<std::pair<uint64_t, uint64_t>> sorted;
  sorted.reserve(distinct_);
  for (const Slot& slot : slots_) {
    if (slot.count != 0) sorted.emplace_back(slot.value, slot.count);
  }
  std::sort(sorted.begin(), sorted.end());
  size_t k = 0;
  for (const double q : qs) {
    const double rank = q * static_cast<double>(count_);
    double below = 0.0;
    double value = static_cast<double>(sorted.back().first) + 0.5;
    for (const auto& [ns, count] : sorted) {
      const double n = static_cast<double>(count);
      if (below + n >= rank) {
        value = static_cast<double>(ns) - 0.5 + (rank - below) / n;
        break;
      }
      below += n;
    }
    out[k++] = value;
  }
  return out;
}

void LatencyHistogram::Clear() {
  if (count_ != 0) std::fill(slots_.begin(), slots_.end(), Slot{});
  distinct_ = 0;
  count_ = 0;
  sum_ = 0;
}

void LatencyHistogram::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
  for (const Slot& slot : old) {
    if (slot.count != 0) Find(slot.value) = slot;
  }
}

uint64_t FirstSustainedEntryNs(const TimeSeries& series, double target,
                               double tolerance, size_t sustain_points,
                               uint64_t not_before_ns) {
  const double band = std::abs(target) * tolerance;
  size_t run_start = SIZE_MAX;
  size_t run_length = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const bool eligible = series.times_ns[i] >= not_before_ns;
    const bool inside = std::abs(series.values[i] - target) <= band;
    if (eligible && inside) {
      if (run_length == 0) run_start = i;
      ++run_length;
      if (run_length >= sustain_points) {
        return series.times_ns[run_start];
      }
    } else {
      run_length = 0;
    }
  }
  return UINT64_MAX;
}

double JainFairnessIndex(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_squares = 0.0;
  for (const double value : values) {
    sum += value;
    sum_squares += value * value;
  }
  if (values.empty() || sum_squares == 0.0) return 1.0;
  return sum * sum /
         (static_cast<double>(values.size()) * sum_squares);
}

double WeightedJainFairnessIndex(const std::vector<double>& values,
                                 const std::vector<double>& weights) {
  HT_ASSERT(values.size() == weights.size(),
            "weighted fairness needs one weight per value: ",
            values.size(), " vs ", weights.size());
  std::vector<double> normalized;
  normalized.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HT_ASSERT(weights[i] > 0.0, "fairness weight must be positive, got ",
              weights[i]);
    normalized.push_back(values[i] / weights[i]);
  }
  return JainFairnessIndex(normalized);
}

}  // namespace hybridtier
