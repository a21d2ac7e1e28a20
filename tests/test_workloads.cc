/**
 * @file
 * Unit tests for src/workloads: address space, Zipf sampling, CacheLib,
 * graph generation, GAP kernels, streams, Silo, XGBoost, and the
 * factory.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "common/units.h"
#include "mem/page.h"
#include "workloads/address_space.h"
#include "workloads/cachelib.h"
#include "workloads/factory.h"
#include "workloads/gap_kernels.h"
#include "workloads/graph.h"
#include "workloads/silo_ycsb.h"
#include "workloads/spec_stream.h"
#include "workloads/xgboost.h"
#include "workloads/zipf.h"

namespace hybridtier {
namespace {

// ------------------------------------------------------- AddressSpace --

TEST(AddressSpace, PageAlignedRegions) {
  AddressSpace space;
  const VirtualArray a = space.Allocate(8, 100, "a");   // 800 B.
  const VirtualArray b = space.Allocate(4, 10, "b");
  EXPECT_EQ(a.base(), 0u);
  EXPECT_EQ(b.base(), kPageSize);  // Rounded up to page boundary.
  EXPECT_EQ(space.total_pages(), 2u);
  EXPECT_EQ(space.regions().size(), 2u);
}

TEST(AddressSpace, ElementAddressing) {
  AddressSpace space;
  const VirtualArray a = space.Allocate(8, 100, "a");
  EXPECT_EQ(a.AddrOf(0), a.base());
  EXPECT_EQ(a.AddrOf(5), a.base() + 40);
  EXPECT_EQ(a.bytes(), 800u);
}

// --------------------------------------------------------------- Zipf --

TEST(Zipf, RanksInDomain) {
  Rng rng(3);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(zipf.Next(rng), 1000u);
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  Rng rng(5);
  ZipfGenerator zipf(100000, 0.99);
  uint64_t top_decile = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) top_decile += zipf.Next(rng) < 10000;
  // YCSB-style zipf 0.99: the top 10% of ranks draw the large majority.
  EXPECT_GT(static_cast<double>(top_decile) / kDraws, 0.70);
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(7);
  ZipfGenerator zipf(1000, 0.9);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[999]);
}

TEST(Zipf, FrequenciesMatchTheory) {
  Rng rng(9);
  const double theta = 0.99;
  ZipfGenerator zipf(1000, theta);
  std::vector<int> counts(1000, 0);
  constexpr int kDraws = 500000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Next(rng)]++;
  // P(rank 0) / P(rank 9) should be (10/1)^theta.
  const double measured =
      static_cast<double>(counts[0]) / std::max(counts[9], 1);
  const double expected = std::pow(10.0, theta);
  EXPECT_NEAR(measured / expected, 1.0, 0.25);
}

TEST(Zipf, SingleElementDomain) {
  Rng rng(11);
  ZipfGenerator zipf(1, 0.99);
  EXPECT_EQ(zipf.Next(rng), 0u);
}

// ----------------------------------------------------------- CacheLib --

TEST(CacheLib, OpsAccessIndexAndPayload) {
  CacheLibConfig config = CacheLibWorkload::CdnConfig(2000, 1);
  CacheLibWorkload workload(config);
  OpTrace op;
  ASSERT_TRUE(workload.NextOp(0, &op));
  ASSERT_GE(op.size(), 2u);  // Index entry + at least one payload page.
  // All addresses inside the footprint.
  for (const MemoryAccess& access : op.accesses) {
    EXPECT_LT(PageOfAddr(access.addr), workload.footprint_pages());
  }
}

TEST(CacheLib, PayloadSpansObjectPages) {
  CacheLibConfig config = CacheLibWorkload::CdnConfig(2000, 1);
  CacheLibWorkload workload(config);
  OpTrace op;
  // Across many ops, op size tracks the object page count + 1 (index).
  for (int i = 0; i < 200; ++i) {
    workload.NextOp(0, &op);
    EXPECT_GE(op.size(), 2u);
    EXPECT_LE(op.size(), 128u / 4 + 2);  // <= max object pages + index.
  }
}

TEST(CacheLib, SocialObjectsSmallerThanCdn) {
  CacheLibWorkload cdn(CacheLibWorkload::CdnConfig(2000, 1));
  CacheLibWorkload social(CacheLibWorkload::SocialGraphConfig(2000, 1));
  // Same object count: social footprint must be much smaller.
  EXPECT_LT(social.footprint_pages() * 4, cdn.footprint_pages());
}

TEST(CacheLib, GetRatioControlsWrites) {
  CacheLibConfig config = CacheLibWorkload::CdnConfig(500, 1);
  config.get_ratio = 0.0;  // All SETs.
  CacheLibWorkload workload(config);
  OpTrace op;
  workload.NextOp(0, &op);
  // Payload accesses of a SET are writes (index lookup is a read).
  EXPECT_TRUE(op.accesses.back().is_write);
}

TEST(CacheLib, ChurnRemapsHotRanks) {
  CacheLibConfig config = CacheLibWorkload::CdnConfig(5000, 1);
  config.churn = {{.time_ns = 1000, .hot_fraction = 1.0}};
  CacheLibWorkload workload(config);

  std::vector<uint64_t> hot_before;
  for (uint64_t rank = 0; rank < 100; ++rank) {
    hot_before.push_back(workload.ObjectOfRank(rank));
  }
  OpTrace op;
  workload.NextOp(0, &op);  // Before the event.
  EXPECT_EQ(workload.churn_events_applied(), 0u);
  workload.NextOp(2000, &op);  // Triggers the event.
  EXPECT_EQ(workload.churn_events_applied(), 1u);

  size_t changed = 0;
  for (uint64_t rank = 0; rank < 100; ++rank) {
    changed += workload.ObjectOfRank(rank) != hot_before[rank];
  }
  // Remapping the full hot set: most of the top-100 ranks now map to
  // different objects.
  EXPECT_GT(changed, 50u);
}

TEST(CacheLib, ChurnEventsFireOnce) {
  CacheLibConfig config = CacheLibWorkload::CdnConfig(1000, 1);
  config.churn = {{.time_ns = 10, .hot_fraction = 0.5},
                  {.time_ns = 20, .hot_fraction = 0.5}};
  CacheLibWorkload workload(config);
  OpTrace op;
  workload.NextOp(15, &op);
  EXPECT_EQ(workload.churn_events_applied(), 1u);
  workload.NextOp(25, &op);
  EXPECT_EQ(workload.churn_events_applied(), 2u);
  workload.NextOp(1000000, &op);
  EXPECT_EQ(workload.churn_events_applied(), 2u);
}

// -------------------------------------------------------------- Graph --

TEST(Graph, KroneckerStructureValid) {
  const Graph graph = GenerateKronecker(10, 8, 1);
  graph.Validate();
  EXPECT_EQ(graph.num_nodes, 1024u);
  EXPECT_EQ(graph.num_edges(), 8192u);
}

TEST(Graph, UniformStructureValid) {
  const Graph graph = GenerateUniformRandom(10, 8, 1);
  graph.Validate();
  EXPECT_EQ(graph.num_nodes, 1024u);
  EXPECT_EQ(graph.num_edges(), 8192u);
}

TEST(Graph, KroneckerIsSkewedUniformIsNot) {
  const Graph kron = GenerateKronecker(12, 8, 1);
  const Graph urand = GenerateUniformRandom(12, 8, 1);
  auto max_degree = [](const Graph& g) {
    uint64_t max_deg = 0;
    for (uint64_t u = 0; u < g.num_nodes; ++u) {
      max_deg = std::max(max_deg, g.Degree(u));
    }
    return max_deg;
  };
  // Power-law hubs vs. Poisson-ish degrees.
  EXPECT_GT(max_degree(kron), 4 * max_degree(urand));
}

TEST(Graph, DeterministicForSeed) {
  const Graph a = GenerateKronecker(8, 4, 7);
  const Graph b = GenerateKronecker(8, 4, 7);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.row_offsets, b.row_offsets);
}

/** FNV-1a over the little-endian bytes of `row_offsets` then `cols`. */
uint64_t GraphDigest(const Graph& graph) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const uint64_t offset : graph.row_offsets) mix(offset, 8);
  for (const uint32_t col : graph.cols) mix(col, 4);
  return h;
}

struct GraphGolden {
  uint32_t scale;
  uint32_t edge_factor;
  uint64_t seed;
  uint64_t num_edges;
  uint64_t digest;
};

// Pinned bytes of the generated CSR: DeterministicForSeed only compares a
// generator with itself, so these catch a change to the graph itself.
TEST(Graph, KroneckerMatchesGolden) {
  const GraphGolden goldens[] = {
      {4, 1, 1, 16, 0x8f7f6a18e140e72full},
      {10, 8, 1, 8192, 0x344032668f701e9aull},
      {14, 8, 7, 131072, 0xf4b7007e1542de35ull},
  };
  for (const GraphGolden& g : goldens) {
    const Graph graph = GenerateKronecker(g.scale, g.edge_factor, g.seed);
    EXPECT_EQ(graph.num_edges(), g.num_edges) << "scale " << g.scale;
    EXPECT_EQ(GraphDigest(graph), g.digest)
        << "scale " << g.scale << " digest 0x" << std::hex
        << GraphDigest(graph);
  }
}

TEST(Graph, UniformMatchesGolden) {
  const GraphGolden goldens[] = {
      {4, 1, 1, 16, 0x6b10acca0c93578aull},
      {10, 8, 1, 8192, 0xe757e4f1397c037dull},
      {14, 8, 7, 131072, 0xf8d19737ae8e1c46ull},
  };
  for (const GraphGolden& g : goldens) {
    const Graph graph = GenerateUniformRandom(g.scale, g.edge_factor, g.seed);
    EXPECT_EQ(graph.num_edges(), g.num_edges) << "scale " << g.scale;
    EXPECT_EQ(GraphDigest(graph), g.digest)
        << "scale " << g.scale << " digest 0x" << std::hex
        << GraphDigest(graph);
  }
}

// -------------------------------------------------------- GAP kernels --

class GapKernelTest : public ::testing::TestWithParam<GapKernel> {};

TEST_P(GapKernelTest, EmitsInBoundsAccesses) {
  auto graph = std::make_shared<Graph>(GenerateKronecker(10, 8, 3));
  GapConfig config;
  config.kernel = GetParam();
  GapWorkload workload(graph, config, "gap-test");
  OpTrace op;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(workload.NextOp(0, &op));
    for (const MemoryAccess& access : op.accesses) {
      ASSERT_LT(PageOfAddr(access.addr), workload.footprint_pages());
    }
  }
}

TEST_P(GapKernelTest, CompletesTrials) {
  auto graph = std::make_shared<Graph>(GenerateKronecker(8, 4, 3));
  GapConfig config;
  config.kernel = GetParam();
  config.pr_iterations = 2;
  GapWorkload workload(graph, config, "gap-test");
  OpTrace op;
  for (int i = 0; i < 400000 && workload.trials_completed() < 2; ++i) {
    workload.NextOp(0, &op);
  }
  EXPECT_GE(workload.trials_completed(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GapKernelTest,
                         ::testing::Values(GapKernel::kBfs, GapKernel::kCc,
                                           GapKernel::kPr));

TEST(GapKernels, BfsVisitsReachableNodes) {
  // Build a tiny known graph: a path 0 -> 1 -> 2 -> 3.
  Graph graph;
  graph.num_nodes = 4;
  graph.row_offsets = {0, 1, 2, 3, 3};
  graph.cols = {1, 2, 3};
  graph.Validate();
  GapConfig config;
  config.kernel = GapKernel::kBfs;
  GapWorkload workload(std::make_shared<Graph>(graph), config, "bfs");
  OpTrace op;
  for (int i = 0; i < 1000 && workload.trials_completed() < 1; ++i) {
    workload.NextOp(0, &op);
  }
  EXPECT_GE(workload.trials_completed(), 1u);
}

TEST(GapKernels, NamesExposed) {
  EXPECT_STREQ(GapKernelName(GapKernel::kBfs), "bfs");
  EXPECT_STREQ(GapKernelName(GapKernel::kCc), "cc");
  EXPECT_STREQ(GapKernelName(GapKernel::kPr), "pr");
}

// ------------------------------------------------------------ Streams --

TEST(Stream, SequentialSweepsWholeFootprint) {
  StreamConfig config = StreamWorkload::BwavesConfig(1 << 14);
  StreamWorkload workload(config, "bwaves-test");
  OpTrace op;
  std::set<PageId> pages;
  while (workload.sweeps_completed() < 1) {
    workload.NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      pages.insert(PageOfAddr(access.addr));
    }
  }
  // One full sweep touches nearly every page of every array.
  EXPECT_GT(pages.size(), workload.footprint_pages() * 9 / 10);
}

TEST(Stream, StencilStaysInBounds) {
  StreamConfig config = StreamWorkload::RomsConfig(1 << 14);
  StreamWorkload workload(config, "roms-test");
  OpTrace op;
  for (int i = 0; i < 20000; ++i) {
    workload.NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      ASSERT_LT(PageOfAddr(access.addr), workload.footprint_pages());
    }
  }
}

TEST(Stream, WritesPresent) {
  StreamConfig config = StreamWorkload::BwavesConfig(1 << 14);
  StreamWorkload workload(config, "bwaves-test");
  OpTrace op;
  workload.NextOp(0, &op);
  bool any_write = false;
  for (const MemoryAccess& access : op.accesses) {
    any_write |= access.is_write;
  }
  EXPECT_TRUE(any_write);
}

// --------------------------------------------------------------- Silo --

TEST(Silo, IndexWalkThenRecord) {
  SiloConfig config;
  config.num_records = 1 << 14;
  SiloWorkload workload(config);
  OpTrace op;
  workload.NextOp(0, &op);
  // One access per index level plus two record lines.
  EXPECT_EQ(op.size(), workload.index_levels() + 2);
}

TEST(Silo, RootIsHottestPage) {
  SiloConfig config;
  config.num_records = 1 << 14;
  SiloWorkload workload(config);
  OpTrace op;
  std::map<PageId, int> page_counts;
  for (int i = 0; i < 5000; ++i) {
    workload.NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      page_counts[PageOfAddr(access.addr)]++;
    }
  }
  // The root index node page is touched by every op.
  const PageId root_page = 0;  // First allocation = root level.
  EXPECT_EQ(page_counts[root_page], 5000);
}

TEST(Silo, YcsbCIsReadOnly) {
  SiloConfig config;
  config.num_records = 4096;
  SiloWorkload workload(config);
  OpTrace op;
  for (int i = 0; i < 1000; ++i) {
    workload.NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      ASSERT_FALSE(access.is_write);
    }
  }
}

// ------------------------------------------------------------ XGBoost --

TEST(Xgboost, RoundsRotateHotColumns) {
  XgboostConfig config;
  config.num_features = 64;
  config.num_rows = 2000;
  XgboostWorkload workload(config);
  const std::vector<uint32_t> first_round = workload.current_columns();
  OpTrace op;
  while (workload.rounds_completed() < 1) workload.NextOp(0, &op);
  const std::vector<uint32_t>& second_round = workload.current_columns();
  EXPECT_EQ(first_round.size(), second_round.size());
  EXPECT_NE(first_round, second_round);
}

TEST(Xgboost, ColumnSubsetSizeMatchesColsample) {
  XgboostConfig config;
  config.num_features = 100;
  config.colsample = 0.25;
  config.num_rows = 1000;
  XgboostWorkload workload(config);
  EXPECT_EQ(workload.current_columns().size(), 25u);
}

TEST(Xgboost, AccessesInBounds) {
  XgboostConfig config;
  config.num_features = 32;
  config.num_rows = 4000;
  XgboostWorkload workload(config);
  OpTrace op;
  for (int i = 0; i < 10000; ++i) {
    workload.NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      ASSERT_LT(PageOfAddr(access.addr), workload.footprint_pages());
    }
  }
}

// ------------------------------------------------------------ Factory --

TEST(Factory, AllIdsConstruct) {
  for (const std::string& id : AllWorkloadIds()) {
    SCOPED_TRACE(id);
    auto workload = MakeWorkload(id, /*scale=*/0.05, /*seed=*/1);
    ASSERT_NE(workload, nullptr);
    EXPECT_GT(workload->footprint_pages(), 0u);
    OpTrace op;
    EXPECT_TRUE(workload->NextOp(0, &op));
    EXPECT_FALSE(op.accesses.empty());
  }
}

TEST(Factory, TwelveWorkloadsInPaperOrder) {
  EXPECT_EQ(AllWorkloadIds().size(), 12u);
  EXPECT_EQ(AllWorkloadIds().front(), "cdn");
  EXPECT_TRUE(IsWorkloadId("pr-u"));
  EXPECT_FALSE(IsWorkloadId("nonsense"));
}

TEST(Factory, ScaleChangesFootprint) {
  auto small = MakeWorkload("silo", 0.05, 1);
  auto large = MakeWorkload("silo", 0.2, 1);
  EXPECT_LT(small->footprint_pages(), large->footprint_pages());
}

}  // namespace
}  // namespace hybridtier
