// Exactness of the simulation's latency statistics: every percentile and
// timeline point it reports is rebuilt here from outside, from the clock
// the simulation hands to `Workload::NextOp` (bench/common's
// `ClockedWorkload`), and must match bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/clocked_workload.h"
#include "common/units.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "multitenant/tenant.h"
#include "workloads/factory.h"

namespace hybridtier {
namespace {

using bench::ClockedOp;
using bench::ClockedTenantWorkload;
using bench::ClockedWorkload;

/**
 * Grouped-data quantile of `values`, computed from the sorted list:
 * value v covers [v - 0.5, v + 0.5) and rank q * n is interpolated
 * inside the value it lands in. 0 when empty.
 */
double GroupedQuantile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  double below = 0.0;
  for (size_t i = 0; i < values.size();) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    const double n = static_cast<double>(j - i);
    if (below + n >= rank) {
      return static_cast<double>(values[i]) - 0.5 + (rank - below) / n;
    }
    below += n;
    i = j;
  }
  return static_cast<double>(values.back()) + 0.5;
}

/** Exact mean of `values`; 0 when empty. */
double ExactMean(const std::vector<uint64_t>& values) {
  uint64_t sum = 0;
  for (const uint64_t v : values) sum += v;
  return values.empty() ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(values.size());
}

/** Post-warm-up latencies of the ops `keep` accepts. */
template <typename Keep>
std::vector<uint64_t> MeasuredLatencies(const std::vector<ClockedOp>& ops,
                                        Keep keep) {
  std::vector<uint64_t> out;
  for (const ClockedOp& op : ops) {
    if (op.measured && keep(op)) out.push_back(op.latency_ns);
  }
  return out;
}

/**
 * Checks each point of `timeline` against the median of exactly the ops
 * `keep` accepts that started in its interval: those whose NextOp clock
 * lies in [at - interval, at), however long they ran.
 */
template <typename Keep>
void ExpectTimelineIsPerIntervalMedian(const TimeSeries& timeline,
                                       const std::vector<ClockedOp>& ops,
                                       TimeNs interval, Keep keep) {
  ASSERT_GT(timeline.size(), 3u);
  size_t next = 0;
  for (size_t i = 0; i < timeline.size(); ++i) {
    const TimeNs at = timeline.times_ns[i];
    std::vector<uint64_t> window;
    while (next < ops.size() && ops[next].start_ns < at) {
      if (ops[next].start_ns >= at - interval && keep(ops[next])) {
        window.push_back(ops[next].latency_ns);
      }
      ++next;
    }
    EXPECT_EQ(timeline.values[i], GroupedQuantile(window, 0.5))
        << "point " << i << " at " << at << " ns";
  }
}

constexpr TimeNs kInterval = 1 * kMillisecond;

SimulationConfig ExactnessConfig() {
  SimulationConfig config;
  config.max_accesses = 400000;
  config.warmup_accesses = 100000;
  config.stats_interval_ns = kInterval;
  config.seed = 3;
  return config;
}

TEST(LatencyStats, RunPercentilesAndTimelineAreExactSingleTenant) {
  auto inner = MakeWorkload("zipf", 0.05, 3);
  ClockedWorkload workload(inner.get(), ExactnessConfig().warmup_accesses);
  auto policy = MakePolicy("HybridTier");
  const SimulationResult r =
      RunSimulation(ExactnessConfig(), &workload, policy.get());
  workload.Finish(r.duration_ns);
  ASSERT_EQ(workload.ops().size(), r.ops);

  const auto all = [](const ClockedOp&) { return true; };
  const std::vector<uint64_t> measured =
      MeasuredLatencies(workload.ops(), all);
  ASSERT_FALSE(measured.empty());
  EXPECT_LT(measured.size(), r.ops);  // Warm-up ops are excluded.
  EXPECT_EQ(r.median_latency_ns, GroupedQuantile(measured, 0.5));
  EXPECT_EQ(r.p99_latency_ns, GroupedQuantile(measured, 0.99));
  EXPECT_EQ(r.mean_latency_ns, ExactMean(measured));

  ExpectTimelineIsPerIntervalMedian(r.latency_timeline, workload.ops(),
                                    kInterval, all);
}

TEST(LatencyStats, PerTenantPercentilesAndTimelinesAreExactOnMux) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,zipf");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 5);
  ClockedTenantWorkload workload(mux.get(),
                                 ExactnessConfig().warmup_accesses);
  FairSharePolicy policy(MakePolicy("HybridTier"), mux->directory());
  const SimulationResult r =
      RunSimulation(ExactnessConfig(), &workload, &policy);
  workload.Finish(r.duration_ns);
  ASSERT_EQ(workload.ops().size(), r.ops);
  ASSERT_EQ(r.tenants.size(), 3u);

  const auto all = [](const ClockedOp&) { return true; };
  EXPECT_EQ(r.median_latency_ns,
            GroupedQuantile(MeasuredLatencies(workload.ops(), all), 0.5));
  ExpectTimelineIsPerIntervalMedian(r.latency_timeline, workload.ops(),
                                    kInterval, all);

  for (uint32_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    const auto mine = [t](const ClockedOp& op) { return op.tenant == t; };
    const std::vector<uint64_t> measured =
        MeasuredLatencies(workload.ops(), mine);
    ASSERT_FALSE(measured.empty());
    const TenantResult& tenant = r.tenants[t];
    EXPECT_EQ(tenant.median_latency_ns, GroupedQuantile(measured, 0.5));
    EXPECT_EQ(tenant.p99_latency_ns, GroupedQuantile(measured, 0.99));
    EXPECT_EQ(tenant.mean_latency_ns, ExactMean(measured));
    ExpectTimelineIsPerIntervalMedian(tenant.latency_timeline,
                                      workload.ops(), kInterval, mine);
  }
}

}  // namespace
}  // namespace hybridtier
