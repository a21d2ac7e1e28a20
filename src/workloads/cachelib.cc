#include "workloads/cachelib.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mem/page.h"

namespace hybridtier {

CacheLibConfig CacheLibWorkload::CdnConfig(uint64_t num_objects,
                                           uint64_t seed) {
  CacheLibConfig config;
  config.num_objects = num_objects;
  config.zipf_theta = 0.9;
  config.get_ratio = 0.97;
  config.size_log_mean = 9.5;  // ~13 KiB median payload.
  config.size_log_sigma = 0.8;
  config.min_object_bytes = 1024;
  config.max_object_bytes = 128 * 1024;
  config.seed = seed;
  return config;
}

CacheLibConfig CacheLibWorkload::SocialGraphConfig(uint64_t num_objects,
                                                   uint64_t seed) {
  CacheLibConfig config;
  config.num_objects = num_objects;
  config.zipf_theta = 0.85;
  config.get_ratio = 0.9;
  config.size_log_mean = 6.2;  // ~490 B median payload.
  config.size_log_sigma = 0.6;
  config.min_object_bytes = 64;
  config.max_object_bytes = 8 * 1024;
  config.seed = seed;
  return config;
}

CacheLibWorkload::CacheLibWorkload(const CacheLibConfig& config,
                                   const char* name)
    : config_(config),
      name_(name),
      rng_(config.seed),
      zipf_(config.num_objects, config.zipf_theta) {
  HT_ASSERT(config.num_objects > 0, "need at least one object");
  HT_ASSERT(config.hot_rank_fraction > 0.0 &&
                config.hot_rank_fraction <= 0.5,
            "hot rank fraction must be in (0, 0.5]");

  // Draw payload sizes and lay objects out back to back, as a slab
  // allocator would.
  object_size_.resize(config.num_objects);
  uint64_t payload_bytes = 0;
  for (auto& size : object_size_) {
    const double drawn =
        rng_.LogNormal(config.size_log_mean, config.size_log_sigma);
    const uint64_t clamped =
        std::clamp<uint64_t>(static_cast<uint64_t>(drawn),
                             config.min_object_bytes,
                             config.max_object_bytes);
    size = static_cast<uint32_t>(clamped);
    payload_bytes += clamped;
  }

  index_ = space_.Allocate(64, config.num_objects, "index");
  const VirtualArray payload = space_.Allocate(1, payload_bytes, "payload");

  object_base_.resize(config.num_objects);
  uint64_t offset = 0;
  for (uint64_t obj = 0; obj < config.num_objects; ++obj) {
    object_base_[obj] = payload.base() + offset;
    offset += object_size_[obj];
  }

  // Popularity rank -> object mapping: a random permutation, so hot
  // objects are scattered over the payload region like a real cache.
  rank_to_object_.resize(config.num_objects);
  for (uint64_t i = 0; i < config.num_objects; ++i) rank_to_object_[i] = i;
  rng_.Shuffle(rank_to_object_.data(), rank_to_object_.size());
}

void CacheLibWorkload::MaybeChurn(TimeNs now) {
  while (next_churn_ < config_.churn.size() &&
         config_.churn[next_churn_].time_ns <= now) {
    const ChurnEvent& event = config_.churn[next_churn_];
    const uint64_t hot_ranks = std::max<uint64_t>(
        1, static_cast<uint64_t>(config_.hot_rank_fraction *
                                 static_cast<double>(config_.num_objects)));
    const uint64_t to_remap =
        static_cast<uint64_t>(event.hot_fraction *
                              static_cast<double>(hot_ranks));
    // Swap each selected hot rank's object with a random cold-rank object:
    // the old hot object keeps only cold-rank traffic while a previously
    // cold object inherits the hot rank.
    const uint64_t cold_start = config_.num_objects / 2;
    for (uint64_t i = 0; i < to_remap; ++i) {
      const uint64_t hot_rank = rng_.NextBounded(hot_ranks);
      const uint64_t cold_rank =
          cold_start + rng_.NextBounded(config_.num_objects - cold_start);
      std::swap(rank_to_object_[hot_rank], rank_to_object_[cold_rank]);
    }
    ++next_churn_;
    HT_INFORM(name_, ": churn event at t=", FormatTime(now), " remapped ",
              to_remap, " hot ranks");
  }
}

void CacheLibWorkload::EmitObjectOp(uint64_t obj, bool is_write,
                                    OpTrace* op) {
  // Index lookup first (hash-table entry for the key).
  op->Read(index_.AddrOf(obj));
  // Then the payload: one access per page the object spans, at a
  // deterministic in-page offset (a streaming read of the value).
  const uint64_t base = object_base_[obj];
  const uint64_t size = object_size_[obj];
  const uint64_t first_page = base / kPageSize;
  const uint64_t last_page = (base + size - 1) / kPageSize;
  for (uint64_t page = first_page; page <= last_page; ++page) {
    const uint64_t addr = std::max(page * kPageSize, base);
    if (is_write) {
      op->Write(addr);
    } else {
      op->Read(addr);
    }
  }
}

bool CacheLibWorkload::NextOp(TimeNs now, OpTrace* op) {
  op->Clear();
  // Index read + one access per page of the largest object class.
  op->Reserve(2 + config_.max_object_bytes / kPageSize);
  MaybeChurn(now);
  const uint64_t rank = zipf_.Next(rng_);
  const uint64_t obj = rank_to_object_[rank];
  const bool is_write = !rng_.Bernoulli(config_.get_ratio);
  EmitObjectOp(obj, is_write, op);
  return true;
}

}  // namespace hybridtier
