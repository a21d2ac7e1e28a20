#include "obs/stage_profiler.h"

#include <algorithm>
#include <cstdio>

namespace hybridtier {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kGeneration:
      return "generation";
    case Stage::kCache:
      return "cache";
    case Stage::kPolicy:
      return "policy";
    case Stage::kSampler:
      return "sampler";
    case Stage::kMigration:
      return "migration";
    case Stage::kAccounting:
      return "accounting";
    case Stage::kCount:
      break;
  }
  return "?";
}

uint64_t StageProfiler::ClockReadNs() {
  static const uint64_t read_ns = [] {
    // A preempted run only raises its own mean, so keep the fastest.
    constexpr uint64_t kRuns = 16, kReads = 64;
    uint64_t fastest = UINT64_MAX;
    for (uint64_t run = 0; run < kRuns; ++run) {
      const uint64_t start = NowNs();
      uint64_t end = start;
      for (uint64_t i = 0; i < kReads; ++i) end = NowNs();
      fastest = std::min(fastest, end - start);
    }
    return (fastest + kReads / 2) / kReads;
  }();
  return read_ns;
}

void StageProfiler::Merge(const StageProfiler& other) {
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    stages_[i].wall_ns += other.stages_[i].wall_ns;
    stages_[i].events += other.stages_[i].events;
  }
  op_wall_ns_ += other.op_wall_ns_;
  op_accesses_ += other.op_accesses_;
  ops_ += other.ops_;
}

uint64_t StageProfiler::OtherNs() const {
  uint64_t attributed = 0;
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    attributed += stages_[i].wall_ns;
  }
  return op_wall_ns_ > attributed ? op_wall_ns_ - attributed : 0;
}

std::string StageProfiler::Report() const {
  std::string report;
  char line[160];
  if (op_accesses_ == 0) return "  (no sampled ops)\n";
  const double per_access =
      static_cast<double>(op_wall_ns_) / static_cast<double>(op_accesses_);
  std::snprintf(line, sizeof(line),
                "  sampled ops %llu, accesses %llu, %.1f ns/access total "
                "(%llu ns clock read subtracted per lap)\n",
                static_cast<unsigned long long>(ops_),
                static_cast<unsigned long long>(op_accesses_), per_access,
                static_cast<unsigned long long>(read_ns_));
  report += line;
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    const Stage stage = static_cast<Stage>(i);
    const StageTotals& totals = stages_[i];
    if (totals.events == 0) continue;
    const double ns = NsPerAccess(stage);
    std::snprintf(line, sizeof(line), "  %-11s %7.1f ns/access  (%4.1f%%)\n",
                  StageName(stage), ns,
                  per_access > 0.0 ? 100.0 * ns / per_access : 0.0);
    report += line;
  }
  const double other =
      static_cast<double>(OtherNs()) / static_cast<double>(op_accesses_);
  std::snprintf(line, sizeof(line), "  %-11s %7.1f ns/access  (%4.1f%%)\n",
                "other", other,
                per_access > 0.0 ? 100.0 * other / per_access : 0.0);
  report += line;
  return report;
}

}  // namespace hybridtier
