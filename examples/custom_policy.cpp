/**
 * @file
 * Example: writing your own tiering policy against the public API.
 *
 * Implements a tiny "sampled-LRU" policy from scratch — promote every
 * sampled slow page, demote the least-recently-sampled fast page when
 * space runs out — and benchmarks it against HybridTier. The point is
 * to show the full extension surface: OnSample / Tick / the migration
 * engine / metadata traffic reporting.
 *
 *   ./build/examples/custom_policy
 */

#include <iostream>

#include "common/table.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "policies/lru_list.h"
#include "policies/policy.h"
#include "workloads/factory.h"

namespace {

using namespace hybridtier;

/** Promote-on-sample, demote-LRU policy (a deliberately naive design). */
class SampledLruPolicy : public TieringPolicy {
 public:
  void OnSample(const SampleRecord& sample) override {
    const PageId unit = sample.page;
    // Metadata: one LRU node touch per sample (reported so the cache
    // model can attribute our overhead, like the built-in policies).
    sink().Touch((1ULL << 44) + (unit / 8) * kCacheLineSize);

    if (lru_.Contains(unit)) {
      lru_.MoveToMru(unit);
      return;
    }
    // Make room, then admit.
    if (lru_.size() >= context().fast_capacity_units) {
      const PageId victim = lru_.PopLru();
      if (memory().IsResident(victim) &&
          memory().TierOf(victim) == Tier::kFast) {
        const PageId pages[] = {victim};
        migration().Demote(pages, sample.time_ns,
                           MigrationReason::kCapacityDemand);
      }
    }
    lru_.PushMru(unit);
    if (memory().IsResident(unit) &&
        memory().TierOf(unit) == Tier::kSlow) {
      const PageId pages[] = {unit};
      migration().Promote(pages, sample.time_ns,
                          MigrationReason::kHotnessRank);
    }
  }

  size_t MetadataBytes() const override { return lru_.memory_bytes(); }
  const char* name() const override { return "SampledLRU"; }

 private:
  LruList lru_;
};

}  // namespace

int main() {
  TablePrinter table(
      {"system", "median latency (ns)", "fast-fill %", "migrations"});
  table.SetTitle("Custom policy vs HybridTier (CacheLib CDN, 1:8)");

  for (int which = 0; which < 2; ++which) {
    auto workload = MakeWorkload("cdn", /*scale=*/0.05, /*seed=*/3);
    std::unique_ptr<TieringPolicy> policy;
    if (which == 0) {
      policy = std::make_unique<SampledLruPolicy>();
    } else {
      policy = MakePolicy("HybridTier");
    }
    SimulationConfig config;
    config.max_accesses = 3000000;
    config.fast_tier_fraction = 1.0 / 8;
    config.allocation = AllocationPolicy::kSlowOnly;
    const SimulationResult result =
        RunSimulation(config, workload.get(), policy.get());
    table.AddRow(
        {policy->name(), FormatDouble(result.median_latency_ns, 0),
         FormatDouble(result.FastAccessFraction() * 100, 1),
         std::to_string(result.migration.promoted_pages +
                        result.migration.demoted_pages)});
  }
  table.Print(std::cout);
  std::cout << "A naive recency policy mispromotes cold pages "
               "(paper §2.3.2); HybridTier's two-metric policy does "
               "not.\n";
  return 0;
}
