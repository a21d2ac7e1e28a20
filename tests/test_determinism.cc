/**
 * @file
 * Determinism regression tests: the harness documents that same config +
 * seed produces identical results. These tests run the same cell twice
 * and require bit-identical headline metrics — single-tenant, huge-page,
 * and multi-tenant (per-tenant results included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clocked_workload.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/audit.h"
#include "obs/stage_profiler.h"
#include "workloads/factory.h"
#include "workloads/trace.h"

namespace hybridtier {
namespace {

SimulationConfig TestConfig() {
  SimulationConfig config;
  config.max_accesses = 200000;
  config.seed = 11;
  return config;
}

/** Runs one (workload, policy) cell from scratch. */
SimulationResult RunCell(const std::string& workload_id,
                         const std::string& policy_name,
                         const SimulationConfig& config, uint64_t seed) {
  auto workload = MakeWorkload(workload_id, 0.05, seed);
  auto policy = MakePolicy(policy_name);
  return RunSimulation(config, workload.get(), policy.get());
}

void ExpectIdenticalHeadlines(const SimulationResult& a,
                              const SimulationResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.fast_mem_accesses, b.fast_mem_accesses);
  EXPECT_EQ(a.slow_mem_accesses, b.slow_mem_accesses);
  EXPECT_EQ(a.hint_faults, b.hint_faults);
  EXPECT_EQ(a.migration.promoted_pages, b.migration.promoted_pages);
  EXPECT_EQ(a.migration.demoted_pages, b.migration.demoted_pages);
  EXPECT_EQ(a.samples_taken, b.samples_taken);
  // Doubles must match bit-for-bit, not approximately.
  EXPECT_EQ(a.throughput_mops, b.throughput_mops);
  EXPECT_EQ(a.median_latency_ns, b.median_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);
}

TEST(Determinism, SameSeedSameSingleTenantResults) {
  for (const char* policy : {"HybridTier", "Memtis", "TPP"}) {
    const SimulationResult a = RunCell("zipf", policy, TestConfig(), 11);
    const SimulationResult b = RunCell("zipf", policy, TestConfig(), 11);
    ExpectIdenticalHeadlines(a, b);
  }
}

TEST(Determinism, SameSeedSameResultsInHugePageMode) {
  SimulationConfig config = TestConfig();
  config.mode = PageMode::kHuge;
  const SimulationResult a = RunCell("cdn", "HybridTier", config, 11);
  const SimulationResult b = RunCell("cdn", "HybridTier", config, 11);
  ExpectIdenticalHeadlines(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  const SimulationResult a = RunCell("zipf", "HybridTier", TestConfig(), 11);
  const SimulationResult b = RunCell("zipf", "HybridTier", TestConfig(), 12);
  // The access stream itself depends on the seed, so at least the
  // virtual duration or the latency distribution must move.
  EXPECT_TRUE(a.duration_ns != b.duration_ns ||
              a.median_latency_ns != b.median_latency_ns ||
              a.migration.promoted_pages != b.migration.promoted_pages);
}

void ExpectIdenticalTimelines(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.times_ns[i], b.times_ns[i]);
    EXPECT_EQ(a.values[i], b.values[i]);  // Bit-for-bit.
  }
}

void ExpectFullyIdentical(const SimulationResult& a,
                          const SimulationResult& b) {
  ExpectIdenticalHeadlines(a, b);
  EXPECT_EQ(a.l1_app_misses, b.l1_app_misses);
  EXPECT_EQ(a.l1_tiering_misses, b.l1_tiering_misses);
  EXPECT_EQ(a.llc_app_misses, b.llc_app_misses);
  EXPECT_EQ(a.llc_tiering_misses, b.llc_tiering_misses);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.samples_dropped, b.samples_dropped);
  EXPECT_EQ(a.migration.promotion_batches, b.migration.promotion_batches);
  EXPECT_EQ(a.migration.demotion_batches, b.migration.demotion_batches);
  ExpectIdenticalTimelines(a.latency_timeline, b.latency_timeline);
  ExpectIdenticalTimelines(a.tiering_llc_share_timeline,
                           b.tiering_llc_share_timeline);
  ExpectIdenticalTimelines(a.fast_used_timeline, b.fast_used_timeline);
}

SimulationResult RunMultiTenantCell() {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,silo");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 300000;
  return RunSimulation(config, mux.get(), fair.get());
}

TEST(Determinism, MultiTenantPerTenantResultsAreBitIdentical) {
  const SimulationResult a = RunMultiTenantCell();
  const SimulationResult b = RunMultiTenantCell();
  ExpectFullyIdentical(a, b);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantResult& ta = a.tenants[t];
    const TenantResult& tb = b.tenants[t];
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.ops, tb.ops);
    EXPECT_EQ(ta.accesses, tb.accesses);
    EXPECT_EQ(ta.fast_mem_accesses, tb.fast_mem_accesses);
    EXPECT_EQ(ta.slow_mem_accesses, tb.slow_mem_accesses);
    EXPECT_EQ(ta.fast_resident_units, tb.fast_resident_units);
    EXPECT_EQ(ta.footprint_units, tb.footprint_units);
    EXPECT_EQ(ta.throughput_mops, tb.throughput_mops);
    EXPECT_EQ(ta.median_latency_ns, tb.median_latency_ns);
    EXPECT_EQ(ta.p99_latency_ns, tb.p99_latency_ns);
    EXPECT_EQ(ta.mean_latency_ns, tb.mean_latency_ns);
  }
}

/** Runs a cell with mid-run tenant churn (an arrival and a departure). */
SimulationResult RunChurnCell() {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,cdn:2@0-5e7,zipf@3e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 30000000;
  config.max_time_ns = 90 * kMillisecond;
  return RunSimulation(config, mux.get(), fair.get());
}

TEST(Determinism, ChurnTimelinesAreBitIdentical) {
  const SimulationResult a = RunChurnCell();
  const SimulationResult b = RunChurnCell();
  ExpectIdenticalHeadlines(a, b);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.weighted_jain_fairness, b.weighted_jain_fairness);
  ExpectIdenticalTimelines(a.weighted_fairness_timeline,
                           b.weighted_fairness_timeline);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].ops, b.tenants[t].ops);
    EXPECT_EQ(a.tenants[t].fast_resident_units,
              b.tenants[t].fast_resident_units);
    ExpectIdenticalTimelines(a.tenants[t].occupancy_timeline,
                             b.tenants[t].occupancy_timeline);
    ExpectIdenticalTimelines(a.tenants[t].latency_timeline,
                             b.tenants[t].latency_timeline);
  }
}

// ----------------------------------------------------------------------
// Dispatch gates. The simulator calls a policy per access only when the
// policy declares kInline (policies/policy.h); the sample-driven kNone
// policies are skipped in the hot loop. Skipping must be unobservable,
// and every policy must get exactly the dispatch it declares.

/**
 * Forwards every `TieringPolicy` hook to `inner` and counts the access
 * hooks the simulator calls. With `force_inline` it declares kInline
 * whatever `inner` declares, so the simulator calls OnAccess once per
 * access; otherwise it declares `inner`'s interest. It forwards no
 * optional view (`TenantQuotaStatsSource`, `InvariantSource`), so around
 * a policy that has one it is fit for counting dispatch only.
 */
class DispatchProbe final : public TieringPolicy {
 public:
  /** `inner` is borrowed. */
  DispatchProbe(TieringPolicy* inner, bool force_inline)
      : inner_(inner), force_inline_(force_inline) {}

  void Bind(const PolicyContext& context) override { inner_->Bind(context); }
  AccessInterest access_interest() const override {
    return force_inline_ ? AccessInterest::kInline
                         : inner_->access_interest();
  }
  void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) override {
    ++on_access_calls_;
    inner_->OnAccess(unit, touch, now);
  }
  void OnSample(const SampleRecord& sample) override {
    inner_->OnSample(sample);
  }
  void Tick(TimeNs now) override { inner_->Tick(now); }
  void OnEndpointHealth(uint32_t endpoint, EndpointHealth state,
                        TimeNs now) override {
    inner_->OnEndpointHealth(endpoint, state, now);
  }
  void OnExternalMigration(TimeNs now) override {
    inner_->OnExternalMigration(now);
  }
  uint32_t HotnessOf(PageId unit) const override {
    return inner_->HotnessOf(unit);
  }
  void HotnessOfEach(std::span<const PageId> units,
                     std::span<uint32_t> out) const override {
    inner_->HotnessOfEach(units, out);
  }
  size_t MetadataBytes() const override { return inner_->MetadataBytes(); }
  const char* name() const override { return inner_->name(); }

  uint64_t on_access_calls() const { return on_access_calls_; }
  uint64_t on_batch_calls() const { return on_batch_calls_; }

 protected:
  void OnAccessBatchImpl(std::span<const TouchEvent> events) override {
    ++on_batch_calls_;
    inner_->OnAccessBatch(events);
  }

 private:
  TieringPolicy* inner_;
  bool force_inline_;
  uint64_t on_access_calls_ = 0;
  uint64_t on_batch_calls_ = 0;
};

/** One cell, its policy dispatched as declared or forced per access. */
SimulationResult RunDispatchCell(const std::string& workload_id,
                                 const std::string& policy_name,
                                 bool force_inline) {
  auto workload =
      MakeWorkload(workload_id, workload_id == "zipf" ? 0.25 : 1.0, 17);
  auto policy = MakePolicy(policy_name);
  DispatchProbe forced(policy.get(), /*force_inline=*/true);
  SimulationConfig config;
  config.max_accesses = 300000;
  config.seed = 17;
  return RunSimulation(config, workload.get(),
                       force_inline ? &forced : policy.get());
}

TEST(Determinism, SkippedAndPerAccessDispatchAreBitIdentical) {
  for (const char* workload : {"zipf", "bfs-k"}) {
    for (const char* policy : {"HybridTier", "Memtis", "ARC", "FirstTouch"}) {
      SCOPED_TRACE(std::string(workload) + "/" + policy);
      ASSERT_EQ(MakePolicy(policy)->access_interest(), AccessInterest::kNone);
      const SimulationResult skipped =
          RunDispatchCell(workload, policy, /*force_inline=*/false);
      const SimulationResult per_access =
          RunDispatchCell(workload, policy, /*force_inline=*/true);
      ExpectFullyIdentical(skipped, per_access);
    }
  }
}

TEST(Determinism, PolicyDispatchMatchesAccessInterest) {
  struct Case {
    const char* policy;
    AccessInterest interest;
  };
  const Case cases[] = {
      {"HybridTier", AccessInterest::kNone},
      {"Memtis", AccessInterest::kNone},
      {"TPP", AccessInterest::kInline},
      {"AutoNUMA", AccessInterest::kInline},
      {"ARC", AccessInterest::kNone},
      {"TwoQ", AccessInterest::kNone},
      {"FirstTouch", AccessInterest::kNone},
      {"FairShare(HybridTier)", AccessInterest::kInline},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.policy);
    std::unique_ptr<Workload> workload;
    std::unique_ptr<TieringPolicy> policy;
    if (std::string(c.policy) == "FairShare(HybridTier)") {
      std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2");
      for (TenantSpec& spec : specs) spec.scale = 0.05;
      auto mux = MakeMuxWorkload(specs, 11);
      policy = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                 mux->directory());
      workload = std::move(mux);
    } else {
      workload = MakeWorkload("zipf", 0.05, 11);
      policy = MakePolicy(c.policy);
    }
    EXPECT_EQ(policy->access_interest(), c.interest);
    DispatchProbe probe(policy.get(), /*force_inline=*/false);
    SimulationConfig config = TestConfig();
    config.max_accesses = 50000;
    const SimulationResult result =
        RunSimulation(config, workload.get(), &probe);
    EXPECT_GT(result.accesses, 0u);
    EXPECT_EQ(probe.on_access_calls(),
              c.interest == AccessInterest::kInline ? result.accesses : 0u);
    EXPECT_EQ(probe.on_batch_calls(), 0u);
  }
}

/**
 * Owns `inner` and forwards every `TieringPolicy` hook to it except
 * `HotnessOfEach`, which it leaves to the base-class loop over
 * `HotnessOf`: the per-unit hotness reads the fair-share victim ranking
 * made before it read the base policy's hotness in batches.
 */
class PerUnitHotnessReads final : public TieringPolicy {
 public:
  explicit PerUnitHotnessReads(std::unique_ptr<TieringPolicy> inner)
      : inner_(std::move(inner)) {}

  void Bind(const PolicyContext& context) override { inner_->Bind(context); }
  AccessInterest access_interest() const override {
    return inner_->access_interest();
  }
  void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) override {
    inner_->OnAccess(unit, touch, now);
  }
  void OnSample(const SampleRecord& sample) override {
    inner_->OnSample(sample);
  }
  void Tick(TimeNs now) override { inner_->Tick(now); }
  void OnEndpointHealth(uint32_t endpoint, EndpointHealth state,
                        TimeNs now) override {
    inner_->OnEndpointHealth(endpoint, state, now);
  }
  void OnExternalMigration(TimeNs now) override {
    inner_->OnExternalMigration(now);
  }
  uint32_t HotnessOf(PageId unit) const override {
    ++hotness_reads_;
    return inner_->HotnessOf(unit);
  }
  size_t MetadataBytes() const override { return inner_->MetadataBytes(); }
  const char* name() const override { return inner_->name(); }

  /** Units whose hotness was read, one `HotnessOf` call each. */
  uint64_t hotness_reads() const { return hotness_reads_; }

 protected:
  void OnAccessBatchImpl(std::span<const TouchEvent> events) override {
    inner_->OnAccessBatch(events);
  }

 private:
  std::unique_ptr<TieringPolicy> inner_;
  mutable uint64_t hotness_reads_ = 0;
};

TEST(Determinism, BatchedAndLegacyDispatchMatchForFairShare) {
  // The multi-tenant cell with HybridTier's batched hotness probe against
  // the same cell reading hotness one unit at a time.
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,silo");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto per_unit_owned =
      std::make_unique<PerUnitHotnessReads>(MakePolicy("HybridTier"));
  const PerUnitHotnessReads* per_unit = per_unit_owned.get();
  FairSharePolicy fair(std::move(per_unit_owned), mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 300000;
  const SimulationResult legacy = RunSimulation(config, mux.get(), &fair);
  const SimulationResult batched = RunMultiTenantCell();

  EXPECT_GT(per_unit->hotness_reads(), 0u);  // Victims were ranked.
  EXPECT_GT(batched.migration.demoted_pages, 0u);
  ExpectFullyIdentical(batched, legacy);
  ASSERT_EQ(batched.tenants.size(), legacy.tenants.size());
  for (size_t t = 0; t < batched.tenants.size(); ++t) {
    EXPECT_EQ(batched.tenants[t].fast_resident_units,
              legacy.tenants[t].fast_resident_units);
    EXPECT_EQ(batched.tenants[t].ops, legacy.tenants[t].ops);
  }
}

TEST(Determinism, TraceReplayMatchesLiveGeneration) {
  for (const char* workload_id : {"zipf", "bfs-k"}) {
    SCOPED_TRACE(workload_id);
    const double scale = std::string(workload_id) == "zipf" ? 0.25 : 1.0;
    SimulationConfig config;
    config.max_accesses = 300000;
    config.seed = 29;

    auto live_workload = MakeWorkload(workload_id, scale, 29);
    auto live_policy = MakePolicy("HybridTier");
    const SimulationResult live =
        RunSimulation(config, live_workload.get(), live_policy.get());

    auto recorded_workload = MakeWorkload(workload_id, scale, 29);
    auto trace = std::make_shared<const RecordedTrace>(
        RecordTrace(*recorded_workload, config.max_accesses));
    ReplayWorkload replay(trace);
    auto replay_policy = MakePolicy("HybridTier");
    const SimulationResult replayed =
        RunSimulation(config, &replay, replay_policy.get());

    ExpectFullyIdentical(live, replayed);
  }
}

// Pre-refactor goldens: integer stats captured from the seed simulator
// (before the batched-execution / devirtualized-metadata / flat-state
// refactor) on this matrix. The refactored engine must reproduce every
// one bit-for-bit — the hot-path overhaul is a pure implementation
// change. If a *deliberate* semantic change ever lands, recapture these
// with the previous release.
struct GoldenCell {
  const char* workload;
  const char* policy;
  uint64_t ops, accesses, duration_ns;
  uint64_t fast_mem, slow_mem, hint_faults;
  uint64_t promoted, demoted, samples_taken;
  uint64_t l1_app, llc_app, l1_tier, llc_tier;
};

constexpr GoldenCell kPreRefactorGoldens[] = {
    {"zipf", "HybridTier", 100000ull, 400000ull, 39930826ull, 113233ull,
     186277ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull, 299510ull,
     13709ull, 11136ull},
    {"zipf", "Memtis", 100000ull, 400000ull, 39955106ull, 113427ull,
     186376ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull, 299803ull,
     14903ull, 14777ull},
    {"zipf", "TPP", 100000ull, 400000ull, 127787828ull, 70518ull,
     239508ull, 51721ull, 2783ull, 3034ull, 6564ull, 382878ull, 310026ull,
     136176ull, 125246ull},
    {"zipf", "AutoNUMA", 100000ull, 400000ull, 137888926ull, 86695ull,
     223784ull, 55001ull, 3309ull, 3309ull, 6564ull, 382878ull, 310479ull,
     147721ull, 126569ull},
    {"bfs-k", "HybridTier", 2359ull, 400080ull, 23945877ull, 142121ull,
     89749ull, 0ull, 717ull, 745ull, 6565ull, 313531ull, 231870ull,
     4366ull, 3088ull},
    {"bfs-k", "Memtis", 2359ull, 400080ull, 23944297ull, 142134ull,
     89727ull, 0ull, 717ull, 745ull, 6565ull, 313531ull, 231861ull,
     3752ull, 3186ull},
    {"bfs-k", "TPP", 2359ull, 400080ull, 35484585ull, 34831ull, 198793ull,
     3710ull, 246ull, 286ull, 6565ull, 313531ull, 233624ull, 11280ull,
     10921ull},
    {"bfs-k", "AutoNUMA", 2359ull, 400080ull, 37495645ull, 37484ull,
     196256ull, 4231ull, 417ull, 417ull, 6565ull, 313531ull, 233740ull,
     11820ull, 11308ull},
    {"pr-k", "HybridTier", 32783ull, 400001ull, 30019142ull, 115676ull,
     141433ull, 0ull, 1270ull, 1270ull, 6564ull, 322427ull, 257109ull,
     11250ull, 4562ull},
    {"pr-k", "Memtis", 32783ull, 400001ull, 29998574ull, 117010ull,
     140368ull, 0ull, 1271ull, 1309ull, 6564ull, 322427ull, 257378ull,
     8519ull, 5694ull},
    {"pr-k", "TPP", 32783ull, 400001ull, 43597824ull, 26997ull, 231325ull,
     5496ull, 309ull, 384ull, 6564ull, 322427ull, 258322ull, 13637ull,
     12384ull},
    {"pr-k", "AutoNUMA", 32783ull, 400001ull, 44182212ull, 29508ull,
     228795ull, 5496ull, 318ull, 355ull, 6564ull, 322427ull, 258303ull,
     13159ull, 12183ull},
};

// Runs one golden cell on the shared harness (seed 11, 400k accesses)
// and checks every recorded field.
void ExpectMatchesGolden(const GoldenCell& golden, double scale,
                         PageMode mode) {
  SCOPED_TRACE(std::string(golden.workload) + "/" + golden.policy);
  auto workload = MakeWorkload(golden.workload, scale, 11);
  auto policy = MakePolicy(golden.policy);
  SimulationConfig config;
  config.max_accesses = 400000;
  config.seed = 11;
  config.mode = mode;
  const SimulationResult r =
      RunSimulation(config, workload.get(), policy.get());
  EXPECT_EQ(r.ops, golden.ops);
  EXPECT_EQ(r.accesses, golden.accesses);
  EXPECT_EQ(r.duration_ns, golden.duration_ns);
  EXPECT_EQ(r.fast_mem_accesses, golden.fast_mem);
  EXPECT_EQ(r.slow_mem_accesses, golden.slow_mem);
  EXPECT_EQ(r.hint_faults, golden.hint_faults);
  EXPECT_EQ(r.migration.promoted_pages, golden.promoted);
  EXPECT_EQ(r.migration.demoted_pages, golden.demoted);
  EXPECT_EQ(r.samples_taken, golden.samples_taken);
  EXPECT_EQ(r.l1_app_misses, golden.l1_app);
  EXPECT_EQ(r.llc_app_misses, golden.llc_app);
  EXPECT_EQ(r.l1_tiering_misses, golden.l1_tier);
  EXPECT_EQ(r.llc_tiering_misses, golden.llc_tier);
}

TEST(Determinism, RefactoredEngineReproducesPreRefactorGoldens) {
  for (const GoldenCell& golden : kPreRefactorGoldens) {
    ExpectMatchesGolden(
        golden, std::string(golden.workload) == "zipf" ? 1.0 : 2.0,
        PageMode::kRegular);
  }
}

// List-cache and huge-page goldens, captured on the same harness before
// the policy-layer consolidation (shared NUMA-balancing and list-cache
// bases, one watermark helper, one promotion-batch flush). The ARC and
// TwoQ cells run at smaller scales than kPreRefactorGoldens so their
// lists fill the fast tier and they actually migrate; the kHuge cells
// run zipf at scale 16 so every standard policy promotes and demotes.
struct ScaledGoldenCell {
  double scale;
  PageMode mode;
  GoldenCell cell;
};

const ScaledGoldenCell kPolicyLayerGoldens[] = {
    {0.1, PageMode::kRegular,
     {"zipf", "ARC", 100000ull, 400000ull, 43104966ull, 32035ull,
      225740ull, 0ull, 520ull, 520ull, 6564ull, 373246ull,
      257775ull, 6908ull, 6897ull}},
    {0.1, PageMode::kRegular,
     {"zipf", "TwoQ", 100000ull, 400000ull, 43463618ull, 29474ull,
      228290ull, 0ull, 464ull, 464ull, 6564ull, 373246ull,
      257764ull, 6860ull, 6852ull}},
    {0.5, PageMode::kRegular,
     {"bfs-k", "ARC", 2804ull, 400010ull, 19484925ull, 1541ull,
      126603ull, 0ull, 78ull, 78ull, 6564ull, 323541ull,
      128144ull, 2261ull, 2123ull}},
    {0.5, PageMode::kRegular,
     {"bfs-k", "TwoQ", 2804ull, 400010ull, 19623033ull, 1357ull,
      126663ull, 0ull, 31ull, 31ull, 6564ull, 323541ull,
      128020ull, 2097ull, 2063ull}},
    {0.5, PageMode::kRegular,
     {"pr-k", "ARC", 35322ull, 400011ull, 26615086ull, 17973ull,
      144991ull, 0ull, 230ull, 230ull, 6564ull, 298509ull,
      162964ull, 5232ull, 5158ull}},
    {0.5, PageMode::kRegular,
     {"pr-k", "TwoQ", 35322ull, 400011ull, 26413830ull, 18377ull,
      144547ull, 0ull, 220ull, 220ull, 6564ull, 298509ull,
      162924ull, 5220ull, 5146ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "TPP", 100000ull, 400000ull, 1083726537ull, 80417ull,
      251290ull, 239772ull, 16215ull, 16215ull, 6564ull, 389106ull,
      331707ull, 530389ull, 5076ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "AutoNUMA", 100000ull, 400000ull, 814977024ull, 78996ull,
      250692ull, 222971ull, 5686ull, 5686ull, 6564ull, 389106ull,
      329688ull, 198622ull, 4885ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "Memtis", 100000ull, 400000ull, 65040384ull, 54272ull,
      272919ull, 0ull, 170ull, 177ull, 6564ull, 389106ull,
      327191ull, 6794ull, 6113ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "ARC", 100000ull, 400000ull, 385370265ull, 55710ull,
      271659ull, 0ull, 2921ull, 2926ull, 6564ull, 389106ull,
      327369ull, 7820ull, 7806ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "TwoQ", 100000ull, 400000ull, 393527375ull, 59776ull,
      267574ull, 0ull, 2994ull, 2999ull, 6564ull, 389106ull,
      327350ull, 7770ull, 7760ull}},
    {16.0, PageMode::kHuge,
     {"zipf", "HybridTier", 100000ull, 400000ull, 66810356ull, 53769ull,
      273890ull, 0ull, 188ull, 188ull, 6564ull, 389106ull,
      327659ull, 86659ull, 10225ull}},
};

TEST(Determinism, PolicyLayerReproducesListCacheAndHugePageGoldens) {
  for (const ScaledGoldenCell& golden : kPolicyLayerGoldens) {
    ASSERT_GT(golden.cell.promoted, 0u);
    ASSERT_GT(golden.cell.demoted, 0u);
    ExpectMatchesGolden(golden.cell, golden.scale, golden.mode);
  }
}

// Fair share under a fault: an endpoint-aware FairSharePolicy(HybridTier)
// fleet on a 3-endpoint switch topology loses ep2 mid-run, so every
// enforcement pass after the fault ranks evacuated units the engine
// refuses to demote. Captured before the enforcement ranking moved from
// a partial sort to a selection; victim choice, refusals and the
// resulting placement must stay bit-identical.
struct FairShareFaultGolden {
  uint64_t accesses, duration_ns;
  uint64_t promoted, demoted, failed_demotions;
  uint64_t promotion_batches, demotion_batches;
  uint64_t fast_mem;
  double p50, p99, weighted_jain;
  uint64_t enforced_demotions[24];
};

constexpr FairShareFaultGolden kFairShareFaultGolden = {
    300000ull, 49305333ull, 6152ull, 6454ull, 156402ull, 325ull, 618ull,
    152962ull, 549.84251036116041, 2969.8266666666668,
    0.81535519386632849,
    {273ull, 422ull, 500ull, 559ull, 756ull, 660ull, 708ull, 749ull,
     777ull, 425ull, 0ull, 0ull, 0ull, 0ull, 0ull, 4ull, 4ull, 13ull, 15ull,
     14ull, 11ull, 20ull, 15ull, 12ull}};

TEST(Determinism, EndpointAwareFairShareUnderFaultMatchesGolden) {
  auto mux = MakeMuxWorkload(
      ParseTenantList("fleet:24,zipf=0.9,fp=512,fpskew=0.3,churn=none,"
                      "seed=7"),
      11);
  FairShareConfig fair_config;
  fair_config.endpoint_aware = true;
  FairSharePolicy fair(MakePolicy("HybridTier"), mux->directory(),
                       fair_config);
  SimulationConfig config;
  config.fast_tier_fraction = 0.4;
  config.max_accesses = 300000;
  config.seed = 11;
  config.topology = "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10";
  config.faults = "faults:ep2@20ms=down";
  const SimulationResult r = RunSimulation(config, mux.get(), &fair);

  const FairShareFaultGolden& golden = kFairShareFaultGolden;
  EXPECT_EQ(r.fault.endpoints_downed, 1u);
  EXPECT_EQ(r.accesses, golden.accesses);
  EXPECT_EQ(r.duration_ns, golden.duration_ns);
  EXPECT_EQ(r.migration.promoted_pages, golden.promoted);
  EXPECT_EQ(r.migration.demoted_pages, golden.demoted);
  EXPECT_EQ(r.migration.failed_demotions, golden.failed_demotions);
  EXPECT_EQ(r.migration.promotion_batches, golden.promotion_batches);
  EXPECT_EQ(r.migration.demotion_batches, golden.demotion_batches);
  EXPECT_EQ(r.fast_mem_accesses, golden.fast_mem);
  // Doubles must match bit-for-bit, not approximately.
  EXPECT_EQ(r.median_latency_ns, golden.p50);
  EXPECT_EQ(r.p99_latency_ns, golden.p99);
  EXPECT_EQ(r.weighted_jain_fairness, golden.weighted_jain);
  ASSERT_EQ(mux->directory().regions.size(),
            std::size(golden.enforced_demotions));
  for (uint32_t t = 0; t < std::size(golden.enforced_demotions); ++t) {
    EXPECT_EQ(fair.enforced_demotions(t), golden.enforced_demotions[t])
        << "tenant " << t;
  }
}

// The stage profiler's lap path, with every op sampled, against no
// profiler: the inline policies (TPP, AutoNUMA), and a fair-share fleet
// that loses an endpoint mid-run. Laps only read the clock, so the
// modeled run must not move, and every op closes one lap per stage.
TEST(Determinism, ProfiledOpsMatchUnprofiledOps) {
  const auto expect_unperturbed = [](const auto& run) {
    StageProfiler stages(/*sample_every=*/1);
    const SimulationResult plain = run(nullptr);
    const SimulationResult profiled = run(&stages);
    ExpectFullyIdentical(plain, profiled);
    EXPECT_EQ(plain.weighted_jain_fairness, profiled.weighted_jain_fairness);
    EXPECT_EQ(stages.sampled_accesses(), profiled.accesses);
    for (const Stage stage : {Stage::kCache, Stage::kSampler,
                              Stage::kMigration, Stage::kAccounting}) {
      EXPECT_EQ(stages.totals(stage).events, stages.sampled_ops())
          << StageName(stage);
    }
    return profiled;
  };
  for (const char* policy : {"TPP", "AutoNUMA"}) {
    SCOPED_TRACE(policy);
    const SimulationResult r = expect_unperturbed([&](StageProfiler* stages) {
      SimulationConfig config = TestConfig();
      config.telemetry.stages = stages;
      return RunCell("zipf", policy, config, 11);
    });
    EXPECT_GT(r.hint_faults, 0u);
  }
  SCOPED_TRACE("FairShare(HybridTier)");
  const SimulationResult r = expect_unperturbed([](StageProfiler* stages) {
    auto mux = MakeMuxWorkload(
        ParseTenantList("fleet:24,zipf=0.9,fp=512,fpskew=0.3,churn=none,"
                        "seed=7"),
        11);
    FairSharePolicy fair(MakePolicy("HybridTier"), mux->directory());
    SimulationConfig config = TestConfig();
    config.fast_tier_fraction = 0.4;
    config.max_accesses = 300000;
    config.topology = "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10";
    config.faults = "faults:ep2@20ms=down";
    config.telemetry.stages = stages;
    return RunSimulation(config, mux.get(), &fair);
  });
  EXPECT_EQ(r.fault.endpoints_downed, 1u);
}

// A churning fair-share cell: FairSharePolicy(HybridTier) over a zipf
// tenant, a cdn tenant that departs mid-run and a second zipf tenant
// that arrives mid-run, on a 1:8 fast tier. The run crosses several
// rebalance ticks, fills under-quota tenants, rotates badly placed
// ones, gates promotions at quota, and drains the departed tenant's
// share, so the exact per-tenant counts pin every fair-share design
// constant along with the controller itself.
struct ChurnGolden {
  uint64_t accesses, duration_ns;
  uint64_t promoted, demoted;
  double p50, p99, weighted_jain;
  uint64_t quota[3], enforced[3], fill[3], released[3], gated[3];
};

constexpr ChurnGolden kChurnGolden = {
    1172283ull, 100007735ull, 3149ull, 5943ull,
    345.25080665177461, 1627.6660439560439, 0.9989708283333123,
    {2006ull, 0ull, 2026ull},   // quota
    {1513ull, 606ull, 667ull},  // enforced
    {525ull, 858ull, 570ull},   // fill
    {0ull, 27136ull, 0ull},     // released
    {308ull, 629ull, 142ull}};  // gated

TEST(Determinism, ChurningFairShareMatchesGolden) {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,cdn:2@0-6e7,zipf@3e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 7);
  FairSharePolicy fair(MakePolicy("HybridTier"), mux->directory());
  SimulationConfig config;
  config.max_accesses = 30000000;
  config.max_time_ns = 100 * kMillisecond;
  config.seed = 7;
  const SimulationResult r = RunSimulation(config, mux.get(), &fair);

  const ChurnGolden& golden = kChurnGolden;
  EXPECT_EQ(r.accesses, golden.accesses);
  EXPECT_EQ(r.duration_ns, golden.duration_ns);
  EXPECT_EQ(r.migration.promoted_pages, golden.promoted);
  EXPECT_EQ(r.migration.demoted_pages, golden.demoted);
  // Doubles must match bit-for-bit, not approximately.
  EXPECT_EQ(r.median_latency_ns, golden.p50);
  EXPECT_EQ(r.p99_latency_ns, golden.p99);
  EXPECT_EQ(r.weighted_jain_fairness, golden.weighted_jain);
  ASSERT_EQ(mux->tenant_count(), 3u);
  for (uint32_t t = 0; t < 3; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    EXPECT_EQ(fair.quota_units(t), golden.quota[t]);
    EXPECT_EQ(fair.enforced_demotions(t), golden.enforced[t]);
    EXPECT_EQ(fair.fill_promotions(t), golden.fill[t]);
    EXPECT_EQ(fair.released_units(t), golden.released[t]);
    EXPECT_EQ(fair.gated_promotions(t), golden.gated[t]);
  }
}

// The residency-window schedule decides who is present when for three
// consumers at once: the mux rotation, the fair-share policy's quotas
// and drains, and the simulation's per-interval tenant walk. Two
// FairShare(HybridTier) cells pin every count those consumers produce:
//  (a) a Poisson fleet whose 5 ms churn period crosses several window
//      edges inside one 1 ms policy tick and one 20 ms stats interval;
//  (b) recurring explicit windows with idle gaps (nobody resident from
//      2 to 10 ms and from 20 to 22 ms), a paced drain that the
//      tenant's next window overtakes, and 1 ms stats points, the first
//      of which falls in a window that opens at t=0.
// Churn log, fairness timeline and per-tenant quota/release counts are
// pinned as FNV-1a hashes.
struct ScheduleGolden {
  uint64_t ops, accesses, duration_ns;
  uint64_t stats_tenant_visits, churn_edge_visits, active_tenants;
  uint64_t churn_events, churn_hash;
  uint64_t fairness_points, fairness_hash;
  uint64_t released_total, quota_hash, released_hash;
};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Folds the eight bytes of `value` into FNV-1a state `hash`. */
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/** Counts the pure idle gaps (no tenant runnable) the mux emits. */
class IdleGapCounter : public bench::ClockedTenantWorkload {
 public:
  using ClockedTenantWorkload::ClockedTenantWorkload;

  bool NextOp(TimeNs now, OpTrace* op) override {
    const bool more = ClockedTenantWorkload::NextOp(now, op);
    if (more && op->accesses.empty()) ++idle_gaps_;
    return more;
  }

  uint64_t idle_gaps() const { return idle_gaps_; }

 private:
  uint64_t idle_gaps_ = 0;
};

/** What one schedule cell produced, plus evidence of the paths it ran. */
struct ScheduleRun {
  ScheduleGolden observed{};
  uint64_t idle_gaps = 0;
  uint64_t max_edges_per_tick = 0;   //!< Churn events in one 1 ms tick.
  uint64_t max_edges_per_stats = 0;  //!< ... in one stats interval.
  uint64_t oversized_drains = 0;     //!< Drain batches > release_batch.
};

ScheduleRun RunScheduleCell(const std::string& tenants, double scale,
                            const FairShareConfig& fair_config,
                            const SimulationConfig& config) {
  std::vector<TenantSpec> specs = ParseTenantList(tenants);
  if (scale > 0) {
    for (TenantSpec& spec : specs) spec.scale = scale;
  }
  auto mux = MakeMuxWorkload(specs, config.seed);
  IdleGapCounter workload(mux.get(), 0);
  FairSharePolicy fair(MakePolicy("HybridTier"), mux->directory(),
                       fair_config);
  DecisionAuditConfig audit_config;
  audit_config.ring_capacity = 1u << 16;
  DecisionAudit audit(audit_config);
  SimulationConfig run_config = config;
  run_config.telemetry.audit = &audit;
  const SimulationResult r = RunSimulation(run_config, &workload, &fair);

  ScheduleRun run;
  ScheduleGolden& o = run.observed;
  o.ops = r.ops;
  o.accesses = r.accesses;
  o.duration_ns = r.duration_ns;
  o.stats_tenant_visits = r.stats_tenant_visits;
  o.churn_edge_visits = fair.churn_edge_visits();
  o.active_tenants = fair.active_tenants();
  o.churn_events = mux->churn_events().size();
  o.churn_hash = kFnvBasis;
  std::map<TimeNs, uint64_t> per_tick;
  std::map<TimeNs, uint64_t> per_stats;
  for (const TenantChurnEvent& event : mux->churn_events()) {
    o.churn_hash = Fnv1a(o.churn_hash, event.time_ns);
    o.churn_hash = Fnv1a(o.churn_hash, event.tenant);
    o.churn_hash = Fnv1a(o.churn_hash, event.arrival ? 1 : 0);
    run.max_edges_per_tick = std::max(
        run.max_edges_per_tick, ++per_tick[event.time_ns / kTickIntervalNs]);
    run.max_edges_per_stats = std::max(
        run.max_edges_per_stats,
        ++per_stats[event.time_ns / config.stats_interval_ns]);
  }
  const TimeSeries& fairness = r.weighted_fairness_timeline;
  o.fairness_points = fairness.size();
  o.fairness_hash = kFnvBasis;
  for (size_t i = 0; i < fairness.size(); ++i) {
    o.fairness_hash = Fnv1a(o.fairness_hash, fairness.times_ns[i]);
    o.fairness_hash =
        Fnv1a(o.fairness_hash, std::bit_cast<uint64_t>(fairness.values[i]));
  }
  o.quota_hash = kFnvBasis;
  o.released_hash = kFnvBasis;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    o.quota_hash = Fnv1a(o.quota_hash, fair.quota_units(t));
    o.released_hash = Fnv1a(o.released_hash, fair.released_units(t));
    o.released_total += fair.released_units(t);
  }
  run.idle_gaps = workload.idle_gaps();
  // Paced reclaim demotes at most release_batch units per tick; only the
  // flush of a drain overtaken by the tenant's next window asks for more.
  EXPECT_EQ(audit.dropped_records(), 0u);
  for (const AuditRecord& record : audit.RingSnapshot()) {
    if (record.reason == MigrationReason::kChurnDrain &&
        record.pages_requested > fair_config.release_batch) {
      ++run.oversized_drains;
    }
  }
  return run;
}

void ExpectScheduleGolden(const ScheduleGolden& o, const ScheduleGolden& g) {
  EXPECT_EQ(o.ops, g.ops);
  EXPECT_EQ(o.accesses, g.accesses);
  EXPECT_EQ(o.duration_ns, g.duration_ns);
  EXPECT_EQ(o.stats_tenant_visits, g.stats_tenant_visits);
  EXPECT_EQ(o.churn_edge_visits, g.churn_edge_visits);
  EXPECT_EQ(o.active_tenants, g.active_tenants);
  EXPECT_EQ(o.churn_events, g.churn_events);
  EXPECT_EQ(o.churn_hash, g.churn_hash);
  EXPECT_EQ(o.fairness_points, g.fairness_points);
  EXPECT_EQ(o.fairness_hash, g.fairness_hash);
  EXPECT_EQ(o.released_total, g.released_total);
  EXPECT_EQ(o.quota_hash, g.quota_hash);
  EXPECT_EQ(o.released_hash, g.released_hash);
}

constexpr ScheduleGolden kPoissonFleetScheduleGolden = {
    260915ull, 1043660ull, 200455510ull,
    1996ull, 16212ull, 45ull,
    16212ull, 12298448666906718719ull,
    10ull, 3533027488659108823ull,
    616368ull, 14937356421296576047ull, 5211294858918032913ull};

constexpr ScheduleGolden kRecurringScheduleGolden = {
    71827ull, 438613ull, 50028311ull,
    91ull, 7ull, 0ull,
    7ull, 8014924886986109963ull,
    50ull, 6927868828433923441ull,
    20620ull, 9808874869469701221ull, 8775964574714363261ull};

TEST(Determinism, ResidencyScheduleMatchesGolden) {
  {
    SCOPED_TRACE("poisson fleet");
    SimulationConfig config;
    config.max_accesses = 2000000;
    config.max_time_ns = 200 * kMillisecond;
    config.seed = 5;
    const ScheduleRun run = RunScheduleCell(
        "fleet:200,zipf=0.9,fp=256,churn=poisson,duty=0.3,period=5ms,"
        "horizon=200ms,seed=5",
        0.0, FairShareConfig{}, config);
    EXPECT_GE(run.max_edges_per_tick, 2u);
    EXPECT_GE(run.max_edges_per_stats, 2u);
    ExpectScheduleGolden(run.observed, kPoissonFleetScheduleGolden);
  }
  {
    SCOPED_TRACE("recurring windows");
    FairShareConfig fair_config;
    fair_config.release_batch = 16;
    SimulationConfig config;
    config.max_accesses = 30000000;
    config.max_time_ns = 60 * kMillisecond;
    // Stats points inside zipf's first window, which opens at t=0.
    config.stats_interval_ns = 1 * kMillisecond;
    config.seed = 5;
    const ScheduleRun run = RunScheduleCell(
        "zipf@0-2ms+30ms-40ms,cdn@10ms-20ms+22ms-50ms", 0.05, fair_config,
        config);
    EXPECT_GT(run.idle_gaps, 0u);
    EXPECT_GT(run.oversized_drains, 0u);
    ExpectScheduleGolden(run.observed, kRecurringScheduleGolden);
  }
}


// Quota enforcement with a down endpoint: a FairShare(HybridTier) fleet
// on a three-endpoint layout loses endpoint 2 mid-run, so every
// enforcement pass ranks units the engine then refuses (their HDM home
// is down) next to units it moves. Four cells -- 4 KiB and 2 MiB
// tracking units (tenant regions 25 to 64 huge units long, 18 of the 24
// starting off an 8-unit boundary), each blind and endpoint-aware --
// pin what the victim selection decides and what its pagemap walk
// costs, so a moved decision or a changed scan shows up in a local
// ctest run.
struct EnforcementGolden {
  uint64_t requested, moved, failed;
  uint64_t enforced_hash;
  uint64_t audit_demoted;
  uint64_t maintenance_touches, maintenance_repeats;
};

/**
 * The fair-share policy, counting the metadata traffic its maintenance
 * hooks (Tick, OnEndpointHealth) report: the counter's touches and the
 * repeats it folds into the line before. The simulation drains the
 * counter only between hooks, so the deltas around each hook add up to
 * every touch and fold the enforcement scans make.
 */
class MaintenanceTrafficProbe final : public FairSharePolicy {
 public:
  using FairSharePolicy::FairSharePolicy;

  void Bind(const PolicyContext& context) override {
    sink_ = context.metadata_sink;
    FairSharePolicy::Bind(context);
  }
  void Tick(TimeNs now) override {
    const uint64_t touches = sink_->touches();
    const uint64_t repeats = sink_->repeats();
    FairSharePolicy::Tick(now);
    touches_ += sink_->touches() - touches;
    repeats_ += sink_->repeats() - repeats;
  }
  void OnEndpointHealth(uint32_t endpoint, EndpointHealth state,
                        TimeNs now) override {
    const uint64_t touches = sink_->touches();
    const uint64_t repeats = sink_->repeats();
    FairSharePolicy::OnEndpointHealth(endpoint, state, now);
    touches_ += sink_->touches() - touches;
    repeats_ += sink_->repeats() - repeats;
  }

  uint64_t touches() const { return touches_; }
  uint64_t repeats() const { return repeats_; }

 private:
  MetadataTrafficCounter* sink_ = nullptr;
  uint64_t touches_ = 0;
  uint64_t repeats_ = 0;
};

/** Victim-selection work of one enforcement cell (the policy's counters). */
struct SelectionWork {
  uint64_t ranked, read;
};

/** Runs one enforcement cell; its selection work goes to `work` if set. */
EnforcementGolden RunEnforcementCell(PageMode mode, bool endpoint_aware,
                                     SelectionWork* work = nullptr) {
  // 2 MiB cells get footprints 8x larger, so each tenant still spans
  // tens of tracking units.
  auto mux = MakeMuxWorkload(
      ParseTenantList(mode == PageMode::kHuge
                          ? "fleet:24,zipf=0.9,fp=32768,fpskew=0.3,"
                            "churn=none,seed=3"
                          : "fleet:24,zipf=0.9,fp=4096,fpskew=0.3,"
                            "churn=none,seed=3"),
      13);
  FairShareConfig fair_config;
  fair_config.endpoint_aware = endpoint_aware;
  MaintenanceTrafficProbe fair(MakePolicy("HybridTier"), mux->directory(),
                               fair_config);
  DecisionAuditConfig audit_config;
  audit_config.ring_capacity = 1u << 16;
  DecisionAudit audit(audit_config);
  SimulationConfig config;
  config.mode = mode;
  config.fast_tier_fraction = 0.4;
  config.max_accesses = 300000;
  config.seed = 13;
  config.topology = "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10";
  config.faults = "faults:ep2@10ms=down";
  config.telemetry.audit = &audit;
  const SimulationResult r = RunSimulation(config, mux.get(), &fair);
  EXPECT_EQ(r.fault.endpoints_downed, 1u);
  EXPECT_EQ(audit.dropped_records(), 0u);

  EnforcementGolden o{};
  for (const AuditRecord& record : audit.RingSnapshot()) {
    o.requested += record.pages_requested;
  }
  o.moved = r.migration.promoted_pages + r.migration.demoted_pages;
  o.failed = r.migration.failed_promotions + r.migration.failed_demotions;
  o.enforced_hash = kFnvBasis;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    o.enforced_hash = Fnv1a(o.enforced_hash, fair.enforced_demotions(t));
  }
  o.audit_demoted = audit.demoted_pages(MigrationReason::kQuotaEnforce) +
                    audit.demoted_pages(MigrationReason::kQuotaRotation);
  o.maintenance_touches = fair.touches();
  o.maintenance_repeats = fair.repeats();
  if (work != nullptr) {
    *work = {fair.ranked_candidates(), fair.hotness_reads()};
  }
  return o;
}

// Per cell: 4 KiB blind, 4 KiB endpoint-aware, 2 MiB blind, 2 MiB
// endpoint-aware.
constexpr EnforcementGolden kEnforcementGolden[] = {
    {648251ull, 31460ull, 616791ull, 5442699492730758205ull, 15396ull,
     1051721ull, 732364ull},
    {609877ull, 29538ull, 580339ull, 16569268193872652533ull, 15938ull,
     1008743ull, 694076ull},
    {8641ull, 609ull, 8032ull, 11453400477484440667ull, 198ull, 17365ull,
     10118ull},
    {8827ull, 575ull, 8252ull, 13577100424320917535ull, 208ull, 17261ull,
     9976ull},
};

TEST(Determinism, EnforcementUnderDownEndpointMatchesGolden) {
  const EnforcementGolden* golden = kEnforcementGolden;
  for (const PageMode mode : {PageMode::kRegular, PageMode::kHuge}) {
    for (const bool aware : {false, true}) {
      SCOPED_TRACE(std::string(mode == PageMode::kHuge ? "2 MiB" : "4 KiB") +
                   (aware ? ", endpoint-aware" : ", blind"));
      const EnforcementGolden o = RunEnforcementCell(mode, aware);
      const EnforcementGolden& g = *golden++;
      // Enforcement keeps asking for units pinned by the down endpoint.
      EXPECT_GT(o.failed, 0u);
      EXPECT_GT(o.audit_demoted, 0u);
      EXPECT_EQ(o.requested, g.requested);
      EXPECT_EQ(o.moved, g.moved);
      EXPECT_EQ(o.failed, g.failed);
      EXPECT_EQ(o.enforced_hash, g.enforced_hash);
      EXPECT_EQ(o.audit_demoted, g.audit_demoted);
      EXPECT_EQ(o.maintenance_touches, g.maintenance_touches);
      EXPECT_EQ(o.maintenance_repeats, g.maintenance_repeats);
    }
  }
}

// The same four cells' victim-selection work: fast units ranked and
// units whose hotness was read. A walk that reads every candidate reads
// 100 %. Settling at the take-th zero reads about 62 % in the 4 KiB
// cells, where most candidates are cold; the endpoint-aware one must
// stay at or under 70 %. The 2 MiB cells' take-th smallest hotness is
// rarely 0, so they read nearly every candidate.
constexpr SelectionWork kSelectionWork[] = {
    {966063ull, 599342ull},
    {966948ull, 597935ull},
    {9115ull, 9051ull},
    {8849ull, 8796ull},
};

TEST(Determinism, EnforcementSelectionWorkMatchesGolden) {
  const SelectionWork* golden = kSelectionWork;
  for (const PageMode mode : {PageMode::kRegular, PageMode::kHuge}) {
    for (const bool aware : {false, true}) {
      SCOPED_TRACE(std::string(mode == PageMode::kHuge ? "2 MiB" : "4 KiB") +
                   (aware ? ", endpoint-aware" : ", blind"));
      SelectionWork work{};
      RunEnforcementCell(mode, aware, &work);
      const SelectionWork& g = *golden++;
      EXPECT_LE(work.read, work.ranked);
      EXPECT_EQ(work.ranked, g.ranked);
      EXPECT_EQ(work.read, g.read);
      if (mode == PageMode::kRegular && aware) {
        EXPECT_LE(work.read * 10, work.ranked * 7);
      }
    }
  }
}

}  // namespace
}  // namespace hybridtier
