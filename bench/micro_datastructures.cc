/**
 * @file
 * Microbenchmarks (google-benchmark) for the tracking data structures:
 * update/lookup throughput of the blocked CBF vs standard CBF vs exact
 * table, cooling passes, Zipf sampling, one cache level and the L1+LLC
 * hierarchy, the tiered memory's resident scan and HDM decode, the
 * fair-share victim selection, and GAP graph generation. These back the
 * paper's data-structure-level claims (compactness and locality of the
 * blocked CBF) with direct operation costs, give the simulator's cache
 * probe a standing cost per access, and give graph set-up a standing
 * cost per generated edge.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache_sim.h"
#include "cache/hierarchy.h"
#include "common/rng.h"
#include "common/units.h"
#include "mem/tiered_memory.h"
#include "multitenant/fair_share_policy.h"
#include "probstruct/blocked_cbf.h"
#include "probstruct/cbf.h"
#include "probstruct/exact_table.h"
#include "probstruct/sizing.h"
#include "workloads/graph.h"
#include "workloads/zipf.h"

namespace hybridtier {
namespace {

constexpr size_t kFastPages = 1 << 20;  // 4 GiB fast tier.

void BM_BlockedCbfIncrement(benchmark::State& state) {
  BlockedCountingBloomFilter cbf(FrequencyCbfSizing(kFastPages), 1);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbf.Increment(rng.NextBounded(kFastPages)));
  }
}
BENCHMARK(BM_BlockedCbfIncrement);

void BM_StandardCbfIncrement(benchmark::State& state) {
  CountingBloomFilter cbf(FrequencyCbfSizing(kFastPages), 1);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbf.Increment(rng.NextBounded(kFastPages)));
  }
}
BENCHMARK(BM_StandardCbfIncrement);

void BM_ExactTableIncrement(benchmark::State& state) {
  ExactCounterTable table(kFastPages * 16);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Increment(rng.NextBounded(kFastPages * 16)));
  }
}
BENCHMARK(BM_ExactTableIncrement);

void BM_BlockedCbfGet(benchmark::State& state) {
  BlockedCountingBloomFilter cbf(FrequencyCbfSizing(kFastPages), 1);
  Rng rng(7);
  for (uint64_t i = 0; i < kFastPages / 4; ++i) {
    cbf.Increment(rng.NextBounded(kFastPages));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbf.Get(rng.NextBounded(kFastPages)));
  }
}
BENCHMARK(BM_BlockedCbfGet);

// The batched read fair-share enforcement ranks victims with: 1024 keys
// per GetEach call, into a filter sized for state.range(0) fast pages
// and a quarter full. 1 << 16 pages gives a ~650 KiB filter, about the
// fleet cell's, which stays cache-resident; 1 << 20 gives ~10 MiB, read
// from DRAM. The keys come from a pool drawn before timing starts, so
// the timed body is the probe alone.
void BM_BlockedCbfGetEach(benchmark::State& state) {
  const auto fast_pages = static_cast<uint64_t>(state.range(0));
  BlockedCountingBloomFilter cbf(FrequencyCbfSizing(fast_pages), 1);
  Rng rng(7);
  for (uint64_t i = 0; i < fast_pages / 4; ++i) {
    cbf.Increment(rng.NextBounded(fast_pages));
  }
  constexpr size_t kKeySets = 16;
  constexpr size_t kKeysPerCall = 1024;
  std::vector<std::vector<uint64_t>> pool(kKeySets,
                                          std::vector<uint64_t>(kKeysPerCall));
  for (std::vector<uint64_t>& keys : pool) {
    for (uint64_t& key : keys) key = rng.NextBounded(fast_pages);
  }
  std::vector<uint32_t> counts(kKeysPerCall);
  size_t next = 0;
  for (auto _ : state) {
    cbf.GetEach(pool[next], counts);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
    next = (next + 1) % kKeySets;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKeysPerCall));
  state.counters["filter_kib"] =
      static_cast<double>(cbf.memory_bytes()) / 1024.0;
}
BENCHMARK(BM_BlockedCbfGetEach)->Arg(1 << 16)->Arg(1 << 20);

void BM_StandardCbfGet(benchmark::State& state) {
  CountingBloomFilter cbf(FrequencyCbfSizing(kFastPages), 1);
  Rng rng(7);
  for (uint64_t i = 0; i < kFastPages / 4; ++i) {
    cbf.Increment(rng.NextBounded(kFastPages));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbf.Get(rng.NextBounded(kFastPages)));
  }
}
BENCHMARK(BM_StandardCbfGet);

void BM_BlockedCbfCooling(benchmark::State& state) {
  BlockedCountingBloomFilter cbf(
      FrequencyCbfSizing(static_cast<size_t>(state.range(0))), 1);
  for (auto _ : state) {
    cbf.CoolByHalving();
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(cbf.memory_bytes()));
}
BENCHMARK(BM_BlockedCbfCooling)->Arg(1 << 16)->Arg(1 << 20);

void BM_ExactTableCooling(benchmark::State& state) {
  ExactCounterTable table(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    table.CoolByHalving();
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(table.memory_bytes()));
}
BENCHMARK(BM_ExactTableCooling)->Arg(1 << 16)->Arg(1 << 20);

// The pagemap walk of fair-share enforcement: the fast units of one
// 4096-unit tenant region, starting off an 8-unit boundary, in a 64 Ki
// unit address space where state.range(0) percent of units are fast
// (dense: a tenant at quota; sparse: one far below it).
void BM_ScanResident(benchmark::State& state) {
  constexpr uint64_t kUnits = 1 << 16;
  constexpr PageId kRegionStart = 1003;
  constexpr uint64_t kRegionUnits = 4096;
  TieredMemory memory(kUnits, kUnits, kUnits, AllocationPolicy::kSlowOnly);
  Rng rng(7);
  for (PageId unit = 0; unit < kUnits; ++unit) {
    memory.Touch(unit, 0);
    if (rng.NextBounded(100) < static_cast<uint64_t>(state.range(0))) {
      memory.Migrate(unit, Tier::kFast);
    }
  }
  uint64_t found = 0;
  for (auto _ : state) {
    memory.ScanResident(kRegionStart, kRegionUnits, Tier::kFast,
                        [&found](PageId) { ++found; });
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRegionUnits));
}
BENCHMARK(BM_ScanResident)->Arg(90)->Arg(3);

// One fair-share victim selection at the fleet-failover pass shape: 415
// fast units of one tenant (ascending, one to three apart) on the fleet
// cells' three-endpoint layout with three distinct endpoint costs, 245
// of them to demote, hotness read from a ~650 KiB blocked CBF. In
// state.range(0) percent of the units the filter reads 0: 90 settles
// the walk early, 0 reads every unit and takes the threshold fallback.
// Sixteen disjoint candidate sets rotate; each pass copies its set first
// (the selection reorders in place), which the timing includes.
void BM_SelectColdestUnits(benchmark::State& state) {
  constexpr size_t kCandidates = 415;
  constexpr uint64_t kTake = 245;
  constexpr size_t kSets = 16;
  constexpr uint64_t kFilterPages = 1 << 16;
  const auto zero_percent = static_cast<uint64_t>(state.range(0));
  BlockedCountingBloomFilter cbf(FrequencyCbfSizing(kFilterPages), 1);
  Rng rng(7);
  std::vector<std::vector<PageId>> sets(kSets);
  for (size_t s = 0; s < kSets; ++s) {
    PageId unit = s * (kFilterPages / kSets);
    for (size_t i = 0; i < kCandidates; ++i) {
      sets[s].push_back(unit);
      if (rng.NextBounded(100) >= zero_percent) cbf.Increment(unit);
      unit += 1 + rng.NextBounded(3);
    }
  }
  const HdmDecoder hdm(3, 1);
  const std::vector<uint16_t> endpoint_cost = {124, 250, 262};
  uint64_t reads = 0;
  const HotnessReader read = [&cbf, &reads](std::span<const PageId> units,
                                            std::span<uint32_t> out) {
    reads += units.size();
    cbf.GetEach(units, out);
  };
  ColdestSelectionScratch scratch;
  std::vector<PageId> units;
  size_t next = 0;
  for (auto _ : state) {
    units = sets[next];
    SelectColdestUnits(units, read, endpoint_cost, hdm, kTake, &scratch);
    benchmark::DoNotOptimize(units.data());
    next = (next + 1) % kSets;
  }
  state.counters["units_read"] =
      static_cast<double>(reads) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SelectColdestUnits)->Arg(90)->Arg(0);

// HDM decode of 4096 random units on the fleet cells' three-endpoint
// layout (one unit per stripe) and on a 512-unit-stripe layout.
void BM_EndpointOf(benchmark::State& state) {
  constexpr uint64_t kUnits = 1 << 20;
  const TieredMemory memory(kUnits, kUnits, kUnits,
                            AllocationPolicy::kSlowOnly, 3,
                            static_cast<uint64_t>(state.range(0)));
  Rng rng(7);
  std::vector<PageId> units(4096);
  for (PageId& unit : units) unit = rng.NextBounded(kUnits);
  for (auto _ : state) {
    uint32_t sum = 0;
    for (const PageId unit : units) sum += memory.EndpointOf(unit);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(units.size()));
}
BENCHMARK(BM_EndpointOf)->Arg(1)->Arg(512);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(100000000, 0.99);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfNext);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache(CacheConfig{.size_bytes = 1 << 20, .ways = 16,
                          .line_size = 64});
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.AccessLine(rng.NextBounded(1 << 22), AccessOwner::kApp));
  }
}
BENCHMARK(BM_CacheAccess);

// The default hierarchy probed as the simulation probes it for an app
// access (app L1, then the shared LLC on an L1 miss). Three in four
// accesses go to 2048 hot lines, which overflow the 256-line L1 but fit
// the 4096-line LLC; the rest go to 2^22 cold lines. The address trace
// is generated up front so the loop times the probes alone.
void BM_CacheHierarchyAccess(benchmark::State& state) {
  constexpr size_t kTraceLen = 1 << 16;
  constexpr uint64_t kHotLines = 2048;
  constexpr uint64_t kColdLines = uint64_t{1} << 22;
  Rng rng(17);
  std::vector<uint64_t> trace(kTraceLen);
  for (uint64_t& addr : trace) {
    const uint64_t line = rng.NextBounded(4) != 0
                              ? rng.NextBounded(kHotLines)
                              : kHotLines + rng.NextBounded(kColdLines);
    addr = line * kCacheLineSize;
  }
  CacheHierarchy hierarchy;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hierarchy.Access(trace[i], AccessOwner::kApp));
    i = (i + 1) & (kTraceLen - 1);
  }
}
BENCHMARK(BM_CacheHierarchyAccess);

// Graph generation at scale 16 (64 Ki nodes, 8 edges per node); items
// are generated edges.
constexpr uint32_t kGraphEdgeFactor = 8;

void BM_GenerateKronecker(benchmark::State& state) {
  const auto scale = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateKronecker(scale, kGraphEdgeFactor, 1).cols.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (kGraphEdgeFactor << scale));
}
BENCHMARK(BM_GenerateKronecker)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_GenerateUniformRandom(benchmark::State& state) {
  const auto scale = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateUniformRandom(scale, kGraphEdgeFactor, 1).cols.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (kGraphEdgeFactor << scale));
}
BENCHMARK(BM_GenerateUniformRandom)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hybridtier

BENCHMARK_MAIN();
