#include "cache/hierarchy.h"

#include "common/logging.h"
#include "common/units.h"

namespace hybridtier {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config)
    : config_(config),
      l1_app_(config.l1, "L1d-app"),
      l1_tiering_(config.l1, "L1d-tiering"),
      llc_(config.llc, "LLC") {}

void CacheHierarchy::ReplayTiering(std::span<const uint64_t> lines,
                                   uint64_t repeats) {
  for (const uint64_t line : lines) Access(line, AccessOwner::kTiering);
  l1_tiering_.AddHits(AccessOwner::kTiering, repeats);
}

uint64_t CacheHierarchy::L1Misses(AccessOwner owner) const {
  const size_t o = static_cast<size_t>(owner);
  return l1_app_.stats().misses[o] + l1_tiering_.stats().misses[o];
}

uint64_t CacheHierarchy::LlcMisses(AccessOwner owner) const {
  return llc_.stats().misses[static_cast<size_t>(owner)];
}

double CacheHierarchy::TieringL1MissShare() const {
  const uint64_t tiering = L1Misses(AccessOwner::kTiering);
  const uint64_t total = tiering + L1Misses(AccessOwner::kApp);
  return total == 0 ? 0.0
                    : static_cast<double>(tiering) /
                          static_cast<double>(total);
}

double CacheHierarchy::TieringLlcMissShare() const {
  return llc_.stats().MissShare(AccessOwner::kTiering);
}

void CacheHierarchy::ResetStats() {
  l1_app_.ResetStats();
  l1_tiering_.ResetStats();
  llc_.ResetStats();
}

void CacheHierarchy::Flush() {
  l1_app_.Flush();
  l1_tiering_.Flush();
  llc_.Flush();
}

}  // namespace hybridtier
