#include "workloads/factory.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "workloads/gap_kernels.h"
#include "workloads/graph.h"
#include "workloads/silo_ycsb.h"
#include "workloads/spec_stream.h"
#include "workloads/synthetic.h"
#include "workloads/xgboost.h"

namespace hybridtier {

namespace {

/** Base GAP graph scale at factory scale 1.0 (2^18 nodes, 8 edges/node). */
constexpr uint32_t kBaseGraphScale = 18;
constexpr uint32_t kEdgeFactor = 8;

/**
 * Per-process cache of generated graphs, keyed by (kind, scale, seed). The
 * mutex makes concurrent workload construction safe (parallel sweep
 * cells build their GAP workloads from worker threads); generation is
 * serialized under it, which only ever costs the first cell per key.
 */
std::shared_ptr<const Graph> CachedGraph(bool kronecker,
                                         uint32_t graph_scale,
                                         uint64_t seed) {
  static std::mutex mutex;
  static std::map<std::tuple<bool, uint32_t, uint64_t>,
                  std::shared_ptr<const Graph>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  const auto key = std::make_tuple(kronecker, graph_scale, seed);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto graph = std::make_shared<Graph>(
      kronecker ? GenerateKronecker(graph_scale, kEdgeFactor, seed)
                : GenerateUniformRandom(graph_scale, kEdgeFactor, seed));
  cache.emplace(key, graph);
  return graph;
}

/** Converts the factory scale to a graph scale exponent. */
uint32_t GraphScaleFor(double scale) {
  const double exponent =
      static_cast<double>(kBaseGraphScale) + std::log2(std::max(scale, 1e-3));
  return static_cast<uint32_t>(
      std::clamp(std::lround(exponent), 10L, 26L));
}

std::unique_ptr<Workload> MakeGap(GapKernel kernel, bool kronecker,
                                  double scale, uint64_t seed,
                                  const char* name) {
  GapConfig config;
  config.kernel = kernel;
  config.seed = seed;
  return std::make_unique<GapWorkload>(
      CachedGraph(kronecker, GraphScaleFor(scale), seed ^ 0x9e3779b9u),
      config, name);
}

uint64_t Scaled(uint64_t base, double scale, uint64_t min_value) {
  return std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(base) * scale), min_value);
}

}  // namespace

const std::vector<std::string>& AllWorkloadIds() {
  static const std::vector<std::string> ids = {
      "cdn",  "social", "bfs-k", "bfs-u",  "cc-k", "cc-u",
      "pr-k", "pr-u",   "bwaves", "roms",  "silo", "xgboost"};
  return ids;
}

bool IsWorkloadId(const std::string& id) {
  if (id == "zipf") return true;  // Synthetic extra, not in paper order.
  const auto& ids = AllWorkloadIds();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

double DefaultWorkloadScale(const std::string& id) {
  if (id == "cdn" || id == "social") return 0.1;
  if (id == "bwaves" || id == "roms" || id == "silo") return 0.25;
  if (id == "xgboost") return 0.5;
  if (id == "zipf") return 1.0;
  return 2.0;  // GAP graph kernels.
}

std::unique_ptr<Workload> MakeWorkload(const std::string& id, double scale,
                                       uint64_t seed,
                                       const std::vector<ChurnEvent>& churn) {
  if (id == "cdn") {
    CacheLibConfig config =
        CacheLibWorkload::CdnConfig(Scaled(120000, scale, 2000), seed);
    config.churn = churn;
    return std::make_unique<CacheLibWorkload>(config, "cachelib-cdn");
  }
  if (id == "social") {
    CacheLibConfig config = CacheLibWorkload::SocialGraphConfig(
        Scaled(600000, scale, 5000), seed);
    config.churn = churn;
    return std::make_unique<CacheLibWorkload>(config, "cachelib-social");
  }
  if (id == "bfs-k") {
    return MakeGap(GapKernel::kBfs, true, scale, seed, "bfs-kron");
  }
  if (id == "bfs-u") {
    return MakeGap(GapKernel::kBfs, false, scale, seed, "bfs-urand");
  }
  if (id == "cc-k") {
    return MakeGap(GapKernel::kCc, true, scale, seed, "cc-kron");
  }
  if (id == "cc-u") {
    return MakeGap(GapKernel::kCc, false, scale, seed, "cc-urand");
  }
  if (id == "pr-k") {
    return MakeGap(GapKernel::kPr, true, scale, seed, "pr-kron");
  }
  if (id == "pr-u") {
    return MakeGap(GapKernel::kPr, false, scale, seed, "pr-urand");
  }
  if (id == "bwaves") {
    return std::make_unique<StreamWorkload>(
        StreamWorkload::BwavesConfig(Scaled(4u << 20, scale, 1u << 14)),
        "spec-bwaves");
  }
  if (id == "roms") {
    return std::make_unique<StreamWorkload>(
        StreamWorkload::RomsConfig(Scaled(4u << 20, scale, 1u << 14)),
        "spec-roms");
  }
  if (id == "silo") {
    SiloConfig config;
    config.num_records = Scaled(1u << 20, scale, 1u << 12);
    config.seed = seed;
    return std::make_unique<SiloWorkload>(config, "silo-ycsbc");
  }
  if (id == "xgboost") {
    XgboostConfig config;
    config.num_rows = Scaled(200000, scale, 4000);
    config.seed = seed;
    return std::make_unique<XgboostWorkload>(config, "xgboost");
  }
  if (id == "zipf") {
    SyntheticZipfConfig config;
    config.num_pages = Scaled(49152, scale, 1024);
    config.seed = seed;
    return std::make_unique<SyntheticZipfWorkload>(config);
  }
  HT_FATAL("unknown workload id '", id, "'");
}

}  // namespace hybridtier
