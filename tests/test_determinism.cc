/**
 * @file
 * Determinism regression tests: the harness documents that same config +
 * seed produces identical results. These tests run the same cell twice
 * and require bit-identical headline metrics — single-tenant, huge-page,
 * and multi-tenant (per-tenant results included).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
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
  ExpectIdenticalHeadlines(a, b);
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

void ExpectIdenticalTimelines(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.times_ns[i], b.times_ns[i]);
    EXPECT_EQ(a.values[i], b.values[i]);  // Bit-for-bit.
  }
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
// Hot-path refactor gates: the batched execution engine must be
// observably indistinguishable from the legacy per-access path, and
// both must still reproduce the stats the pre-refactor simulator
// produced.

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

/** One cell under either dispatch engine. */
SimulationResult RunEngineCell(const std::string& workload_id,
                               const std::string& policy_name,
                               bool batch_execution) {
  auto workload =
      MakeWorkload(workload_id, workload_id == "zipf" ? 0.25 : 1.0, 17);
  auto policy = MakePolicy(policy_name);
  SimulationConfig config;
  config.max_accesses = 300000;
  config.seed = 17;
  config.batch_execution = batch_execution;
  return RunSimulation(config, workload.get(), policy.get());
}

TEST(Determinism, BatchedAndLegacyDispatchAreBitIdentical) {
  for (const char* workload : {"zipf", "bfs-k"}) {
    for (const char* policy :
         {"HybridTier", "Memtis", "TPP", "AutoNUMA", "ARC", "FirstTouch"}) {
      SCOPED_TRACE(std::string(workload) + "/" + policy);
      const SimulationResult batched =
          RunEngineCell(workload, policy, /*batch_execution=*/true);
      const SimulationResult legacy =
          RunEngineCell(workload, policy, /*batch_execution=*/false);
      ExpectFullyIdentical(batched, legacy);
    }
  }
}

TEST(Determinism, BatchedAndLegacyDispatchMatchForFairShare) {
  const auto run = [](bool batch_execution) {
    std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,silo");
    for (TenantSpec& spec : specs) spec.scale = 0.05;
    auto mux = MakeMuxWorkload(specs, 11);
    auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                  mux->directory());
    SimulationConfig config = TestConfig();
    config.max_accesses = 300000;
    config.batch_execution = batch_execution;
    return RunSimulation(config, mux.get(), fair.get());
  };
  const SimulationResult batched = run(true);
  const SimulationResult legacy = run(false);
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

}  // namespace
}  // namespace hybridtier
