#include "cache/cache_sim.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {

Cache::Cache(const CacheConfig& config, std::string name)
    : config_(config), name_(std::move(name)) {
  HT_ASSERT(config.line_size > 0 && std::has_single_bit(config.line_size),
            "line size must be a power of two");
  HT_ASSERT(config.ways > 0, "cache must have at least one way");
  HT_ASSERT(config.ways <= kMaxWays, "associativity above ", kMaxWays,
            " is unsupported, got ", config.ways);
  const uint64_t lines = config.size_bytes / config.line_size;
  HT_ASSERT(lines >= config.ways, "cache too small for its associativity");
  num_sets_ = lines / config.ways;
  HT_ASSERT(num_sets_ > 0 && std::has_single_bit(num_sets_),
            "cache geometry must yield a power-of-two set count, got ",
            num_sets_, " sets");
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  ways_ = config.ways;
  sig_stride_shift_ = ways_ <= 8 ? 3 : 4;
  lru_shift_ = 4 * (ways_ - 1);
  way_mask_ = (uint32_t{1} << ways_) - 1;
  sigs_.resize(num_sets_ << sig_stride_shift_);
  tags_.resize(num_sets_ * ways_);
  order_.resize(num_sets_);
  Flush();
}

void Cache::Flush() {
  std::fill(sigs_.begin(), sigs_.end(), Signature(kInvalidTag));
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  // [ways-1 ... 1, 0] from MRU to LRU: way w sits at position ways-1-w.
  uint64_t initial = 0;
  for (uint32_t way = 0; way < ways_; ++way) {
    initial |= static_cast<uint64_t>(way) << (4 * (ways_ - 1 - way));
  }
  std::fill(order_.begin(), order_.end(), initial);
}

}  // namespace hybridtier
