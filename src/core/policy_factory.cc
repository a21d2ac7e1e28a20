#include "core/policy_factory.h"

#include <algorithm>

#include "common/logging.h"
#include "policies/arc.h"
#include "policies/static_policy.h"
#include "policies/twoq.h"

namespace hybridtier {

const std::vector<std::string>& StandardPolicyNames() {
  static const std::vector<std::string> names = {
      "TPP", "AutoNUMA", "Memtis", "ARC", "TwoQ", "HybridTier"};
  return names;
}

bool IsPolicyName(const std::string& name) {
  static const std::vector<std::string> all = {
      "TPP",        "AutoNUMA",
      "Memtis",     "ARC",
      "TwoQ",       "HybridTier",
      "HybridTier-onlyFreq", "HybridTier-CBF",
      "HybridTier-exact",    "AllFast",
      "FirstTouch"};
  return std::find(all.begin(), all.end(), name) != all.end();
}

std::unique_ptr<TieringPolicy> MakePolicy(const std::string& name,
                                          const PolicyOptions& options) {
  if (name == "Memtis") {
    MemtisConfig config;
    config.cooling_period_samples = options.memtis_cooling_samples;
    return std::make_unique<MemtisPolicy>(config);
  }
  if (name == "AutoNUMA") return std::make_unique<AutoNumaPolicy>();
  if (name == "TPP") return std::make_unique<TppPolicy>();
  if (name == "ARC") return std::make_unique<ArcPolicy>();
  if (name == "TwoQ") return std::make_unique<TwoQPolicy>();
  if (name == "AllFast") {
    return std::make_unique<StaticPolicy>(StaticKind::kAllFast);
  }
  if (name == "FirstTouch") {
    return std::make_unique<StaticPolicy>(StaticKind::kFirstTouch);
  }

  if (name.rfind("HybridTier", 0) == 0) {
    HybridTierConfig config;
    config.momentum_threshold = options.momentum_threshold;
    if (name == "HybridTier") {
      return std::make_unique<HybridTierPolicy>(config);
    }
    if (name == "HybridTier-onlyFreq") {
      config.use_momentum = false;
      return std::make_unique<HybridTierPolicy>(config);
    }
    if (name == "HybridTier-CBF") {
      config.estimator = EstimatorKind::kStandardCbf;
      return std::make_unique<HybridTierPolicy>(config);
    }
    if (name == "HybridTier-exact") {
      config.estimator = EstimatorKind::kExact;
      return std::make_unique<HybridTierPolicy>(config);
    }
  }
  HT_FATAL("unknown policy name '", name, "'");
}

AllocationPolicy AllocationPolicyFor(const std::string& name) {
  if (name == "ARC" || name == "TwoQ") return AllocationPolicy::kSlowOnly;
  return AllocationPolicy::kFastFirst;
}

double FastFractionFor(const std::string& name, double requested) {
  return name == "AllFast" ? 1.0 : requested;
}

}  // namespace hybridtier
