#include "fault/health.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {
namespace {

// Flap windows expand one interval per down slot; cap the slot count so
// a pathological spec (1 ns period over 10 s) cannot eat memory.
constexpr uint64_t kMaxFlapSlots = 1 << 20;

}  // namespace

const char* EndpointHealthName(EndpointHealth state) {
  switch (state) {
    case EndpointHealth::kHealthy:
      return "healthy";
    case EndpointHealth::kDegraded:
      return "degraded";
    case EndpointHealth::kDown:
      return "down";
    case EndpointHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthTracker::HealthTracker(const FaultSchedule& schedule,
                             uint32_t endpoint_count, TimeNs recovery_ns,
                             double recovery_factor)
    : states_(endpoint_count, EndpointHealth::kHealthy),
      factors_(endpoint_count, 1.0) {
  auto add_down = [&](uint32_t endpoint, TimeNs start, TimeNs end) {
    intervals_.push_back(
        {endpoint, start, end, EndpointHealth::kDown, 1.0});
    if (end != 0 && recovery_ns > 0) {
      intervals_.push_back({endpoint, end, end + recovery_ns,
                            EndpointHealth::kRecovering, recovery_factor});
    }
  };

  for (const FaultEvent& event : schedule.events) {
    HT_ASSERT(event.endpoint < endpoint_count,
              "fault event endpoint out of range");
    switch (event.kind) {
      case FaultKind::kDown:
        add_down(event.endpoint, event.start_ns, event.end_ns);
        break;
      case FaultKind::kDegrade:
        intervals_.push_back({event.endpoint, event.start_ns, event.end_ns,
                              EndpointHealth::kDegraded, event.factor});
        break;
      case FaultKind::kFlap: {
        // Pre-expand the flap window into concrete down runs: walk the
        // slots, flip the seeded coin per slot, and merge consecutive
        // down slots into one interval (with one recovery tail each).
        const uint64_t slots = std::min<uint64_t>(
            (event.end_ns - event.start_ns + event.flap_period_ns - 1) /
                event.flap_period_ns,
            kMaxFlapSlots);
        uint64_t run_start = 0;
        bool in_run = false;
        for (uint64_t slot = 0; slot < slots; ++slot) {
          const bool down =
              FlapSlotDown(event.endpoint, slot, event.flap_p);
          if (down && !in_run) {
            in_run = true;
            run_start = slot;
          } else if (!down && in_run) {
            in_run = false;
            add_down(event.endpoint,
                     event.start_ns + run_start * event.flap_period_ns,
                     std::min(event.end_ns,
                              event.start_ns + slot * event.flap_period_ns));
          }
        }
        if (in_run) {
          add_down(event.endpoint,
                   event.start_ns + run_start * event.flap_period_ns,
                   event.end_ns);
        }
        break;
      }
    }
  }

  // One edge per interval boundary; Resolve() recomputes state there.
  edges_.reserve(intervals_.size() * 2);
  for (const Interval& interval : intervals_) {
    edges_.push_back({interval.start_ns, interval.endpoint});
    if (interval.end_ns != 0) edges_.push_back({interval.end_ns, interval.endpoint});
  }
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.endpoint < b.endpoint;
  });
}

void HealthTracker::Resolve(uint32_t endpoint, TimeNs now,
                            EndpointHealth* state, double* factor) const {
  EndpointHealth best = EndpointHealth::kHealthy;
  double best_factor = 1.0;
  for (const Interval& interval : intervals_) {
    if (interval.endpoint != endpoint) continue;
    if (now < interval.start_ns) continue;
    if (interval.end_ns != 0 && now >= interval.end_ns) continue;
    // Priority: down > degraded > recovering > healthy.
    auto rank = [](EndpointHealth s) {
      switch (s) {
        case EndpointHealth::kDown:
          return 3;
        case EndpointHealth::kDegraded:
          return 2;
        case EndpointHealth::kRecovering:
          return 1;
        case EndpointHealth::kHealthy:
          return 0;
      }
      return 0;
    };
    if (rank(interval.state) > rank(best)) {
      best = interval.state;
      best_factor = interval.factor;
    } else if (interval.state == best && interval.factor > best_factor) {
      best_factor = interval.factor;
    }
  }
  *state = best;
  *factor = best == EndpointHealth::kDown ? 1.0 : best_factor;
}

void HealthTracker::Advance(
    TimeNs now, const std::function<void(uint32_t, EndpointHealth,
                                         EndpointHealth, double)>& fn) {
  while (next_edge_ < edges_.size() && edges_[next_edge_].at_ns <= now) {
    const Edge& edge = edges_[next_edge_];
    ++next_edge_;
    EndpointHealth state;
    double factor;
    Resolve(edge.endpoint, edge.at_ns, &state, &factor);
    if (state != states_[edge.endpoint] ||
        factor != factors_[edge.endpoint]) {
      const EndpointHealth old_state = states_[edge.endpoint];
      states_[edge.endpoint] = state;
      factors_[edge.endpoint] = factor;
      fn(edge.endpoint, old_state, state, factor);
    }
  }
}

}  // namespace hybridtier
