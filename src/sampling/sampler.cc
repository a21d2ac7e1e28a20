#include "sampling/sampler.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {

AccessSampler::AccessSampler(const SamplerConfig& config, uint32_t sources)
    : config_(config),
      buffer_(config.buffer_capacity),
      sources_(sources),
      window_left_(config.adapt_window_accesses) {
  HT_ASSERT(config.base_period >= 1, "sampling period must be >= 1");
  HT_ASSERT(config.adapt_window_accesses >= 1,
            "adaptation window must be >= 1");
  HT_ASSERT(sources > 0, "sampler needs at least one source");
  if (sources == 1) {
    sources_[0].rng = Rng(config.seed);
  } else {
    for (uint32_t t = 0; t < sources; ++t) {
      uint64_t state = config.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
      sources_[t].rng = Rng(SplitMix64Next(state));
    }
  }
  for (Source& s : sources_) {
    s.period = config.base_period;
    s.countdown = NextCountdown(&s);
  }
}

uint64_t AccessSampler::NextCountdown(Source* s) {
  if (s->period == 1) return 1;
  // Jitter the period by +/-25% to break aliasing with strided loops.
  const uint64_t spread = s->period / 2;
  if (spread == 0) return s->period;
  return s->period - spread / 2 + s->rng.NextBounded(spread + 1);
}

void AccessSampler::TakeSample(Source* s, PageId page, Tier tier,
                               TimeNs now) {
  s->countdown = NextCountdown(s);
  ++s->samples;
  ++samples_taken_;
  buffer_.Push(SampleRecord{.page = page, .tier = tier, .time_ns = now});
}

void AccessSampler::Adapt() {
  window_left_ = config_.adapt_window_accesses;
  if (sources_.size() == 1) return;  // Nothing to divide.
  // The window's global sample budget, divided equally among the
  // sources that actually ran in it: per-source period = window
  // accesses / per-source share, clamped so an idle-then-bursty source
  // can neither sample every access forever nor starve to silence.
  const uint64_t budget =
      std::max<uint64_t>(1, config_.adapt_window_accesses /
                                config_.base_period);
  const auto active = static_cast<uint64_t>(
      std::count_if(sources_.begin(), sources_.end(), [](const Source& s) {
        return s.accesses > s.window_start;
      }));
  const uint64_t share = std::max<uint64_t>(1, budget / active);
  const uint64_t max_period =
      config_.base_period * std::max<uint64_t>(1, config_.max_period_scale);
  for (Source& s : sources_) {
    const uint64_t window_accesses = s.accesses - s.window_start;
    if (window_accesses == 0) continue;  // Keep the last period.
    s.period = std::clamp<uint64_t>(window_accesses / share, 1, max_period);
    // Re-arm with the new period so the change takes effect this
    // window, not one full old-period later.
    s.countdown = NextCountdown(&s);
    s.window_start = s.accesses;
  }
  ++adaptations_;
}

uint64_t AccessSampler::accesses_seen() const {
  uint64_t total = 0;
  for (const Source& s : sources_) total += s.accesses;
  return total;
}

}  // namespace hybridtier
