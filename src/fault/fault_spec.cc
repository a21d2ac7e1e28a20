#include "fault/fault_spec.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/spec_reader.h"
#include "mem/topology.h"

namespace hybridtier {
namespace {

constexpr char kPrefix[] = "faults:";
constexpr char kChaosPrefix[] = "chaos(";

// Fixed mixing constant for the flap coin so flap behaviour is a pure
// function of (endpoint, slot, p) — independent of any run seed.
constexpr uint64_t kFlapSalt = 0x8f1c7a44d20b39e5ULL;

// Chaos expansion bounds: generated events land on a coarse grid so the
// canonical spec stays readable and the horizon is never exceeded.
constexpr uint32_t kChaosMaxEvents = 256;

/** Parses one `ep<N>@<start>[-<end>]=<kind>` event token. */
FaultEvent ParseEvent(SpecReader& reader) {
  const SpecReader token_start = reader;
  FaultEvent event;
  if (!reader.Consume("ep")) {
    token_start.Fail("expected 'ep<N>@...' event");
  }
  event.endpoint = static_cast<uint32_t>(
      reader.ReadUint("endpoint index", 0, kMaxTopologyEndpoints - 1));
  if (!reader.Consume("@")) {
    token_start.Fail("expected '@<start>' after endpoint index");
  }
  event.start_ns = reader.ReadTime("start time");
  if (reader.Consume("-")) {
    event.end_ns = reader.ReadTime("end time");
    if (event.end_ns <= event.start_ns) {
      token_start.Fail("end time must be after start time");
    }
  }
  if (!reader.Consume("=")) {
    token_start.Fail("expected '=<down|degrade<F>x|flap(...)>'");
  }
  if (reader.Consume("down")) {
    event.kind = FaultKind::kDown;
  } else if (reader.Consume("degrade")) {
    event.kind = FaultKind::kDegrade;
    event.factor = reader.ReadNumber("degrade factor");
    if (!reader.Consume("x")) {
      token_start.Fail("degrade factor must end in 'x' (e.g. degrade3x)");
    }
    if (event.factor <= 1.0) {
      token_start.Fail("degrade factor must be > 1");
    }
  } else if (reader.Consume("flap(p=")) {
    event.kind = FaultKind::kFlap;
    event.flap_p = reader.ReadNumber("flap probability");
    if (event.flap_p <= 0.0 || event.flap_p > 1.0) {
      token_start.Fail("flap probability must be in (0, 1]");
    }
    if (!reader.Consume(",period=")) {
      token_start.Fail("expected ',period=<T>' in flap(...)");
    }
    event.flap_period_ns = reader.ReadTime("flap period");
    if (event.flap_period_ns == 0) {
      token_start.Fail("flap period must be positive");
    }
    if (!reader.Consume(")")) {
      token_start.Fail("expected ')' closing flap(...)");
    }
    if (event.end_ns == 0) {
      token_start.Fail("flap events require an end time (ep<N>@a-b=flap)");
    }
  } else {
    token_start.Fail("unknown fault kind (want down, degrade<F>x, or flap)");
  }
  return event;
}

void CanonicalizeOrder(FaultSchedule& schedule) {
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.endpoint < b.endpoint;
                   });
}

/**
 * Expands `chaos(seed=,endpoints=,horizon=,events=)` into concrete
 * down/degrade events from a SplitMix64 stream over the seed. Each
 * generated event picks an endpoint, a kind (2/3 down, 1/3 degrade),
 * a start in [horizon/8, 3*horizon/4) and a duration in
 * [horizon/64, horizon/4), all quantised to a horizon/1024 grid so the
 * canonical form stays compact. Purely a function of the four knobs.
 */
FaultSchedule ExpandChaos(SpecReader& reader) {
  const SpecReader token_start = reader;
  if (!reader.Consume("chaos(seed=")) {
    token_start.Fail("expected chaos(seed=...)");
  }
  const uint64_t seed = reader.ReadUint("chaos seed", 0);
  if (!reader.Consume(",endpoints=")) {
    token_start.Fail("expected ',endpoints=<N>' in chaos(...)");
  }
  const auto endpoints = static_cast<uint32_t>(
      reader.ReadUint("chaos endpoints", 1, kMaxTopologyEndpoints));
  if (!reader.Consume(",horizon=")) {
    token_start.Fail("expected ',horizon=<T>' in chaos(...)");
  }
  const TimeNs horizon = reader.ReadTime("chaos horizon");
  if (!reader.Consume(",events=")) {
    token_start.Fail("expected ',events=<N>' in chaos(...)");
  }
  const auto events = static_cast<uint32_t>(
      reader.ReadUint("chaos events", 1, kChaosMaxEvents));
  if (!reader.Consume(")")) {
    token_start.Fail("expected ')' closing chaos(...)");
  }
  if (!reader.AtEnd()) {
    reader.Fail("chaos(...) must be the whole schedule");
  }
  if (horizon < 1024) {
    token_start.Fail("chaos horizon must be at least 1024 ns");
  }

  uint64_t state = seed ^ 0x66a1c0fdecafULL;
  const TimeNs grid = horizon / 1024;
  FaultSchedule schedule;
  schedule.events.reserve(events);
  for (uint32_t i = 0; i < events; ++i) {
    FaultEvent event;
    event.endpoint =
        static_cast<uint32_t>(SplitMix64Next(state) % endpoints);
    const TimeNs start_lo = horizon / 8;
    const TimeNs start_span = (3 * horizon / 4) - start_lo;
    event.start_ns =
        start_lo + (SplitMix64Next(state) % start_span) / grid * grid;
    const TimeNs dur_lo = horizon / 64;
    const TimeNs dur_span = (horizon / 4) - dur_lo;
    TimeNs duration =
        dur_lo + (SplitMix64Next(state) % dur_span) / grid * grid;
    if (duration == 0) duration = grid > 0 ? grid : 1;
    event.end_ns = event.start_ns + duration;
    if (SplitMix64Next(state) % 3 == 0) {
      event.kind = FaultKind::kDegrade;
      event.factor =
          2.0 + static_cast<double>(SplitMix64Next(state) % 7);  // 2x..8x
    } else {
      event.kind = FaultKind::kDown;
    }
    schedule.events.push_back(event);
  }
  CanonicalizeOrder(schedule);
  return schedule;
}

}  // namespace

uint32_t FaultSchedule::MaxEndpoint() const {
  uint32_t max_endpoint = 0;
  for (const FaultEvent& event : events) {
    max_endpoint = std::max(max_endpoint, event.endpoint);
  }
  return max_endpoint;
}

FaultSchedule ParseFaultSpec(const std::string& text) {
  SpecReader reader{text};
  if (!reader.Consume(kPrefix)) {
    reader.Fail("fault spec must start with 'faults:'");
  }
  if (reader.AtEnd()) {
    reader.Fail("empty fault schedule (omit the flag for no faults)");
  }
  if (text.compare(reader.pos, sizeof(kChaosPrefix) - 1, kChaosPrefix) == 0) {
    return ExpandChaos(reader);
  }
  FaultSchedule schedule;
  for (;;) {
    schedule.events.push_back(ParseEvent(reader));
    if (reader.AtEnd()) break;
    if (!reader.Consume(",")) {
      reader.Fail("expected ',' between fault events");
    }
    if (reader.AtEnd()) {
      reader.Fail("trailing ',' in fault schedule");
    }
  }
  CanonicalizeOrder(schedule);
  return schedule;
}

std::string FormatFaultSpec(const FaultSchedule& schedule) {
  std::string out = kPrefix;
  bool first = true;
  for (const FaultEvent& event : schedule.events) {
    if (!first) out += ',';
    first = false;
    out += "ep";
    out += std::to_string(event.endpoint);
    out += '@';
    out += std::to_string(event.start_ns);
    if (event.end_ns != 0) {
      out += '-';
      out += std::to_string(event.end_ns);
    }
    out += '=';
    switch (event.kind) {
      case FaultKind::kDown:
        out += "down";
        break;
      case FaultKind::kDegrade:
        out += "degrade";
        out += FormatSpecNumber(event.factor);
        out += 'x';
        break;
      case FaultKind::kFlap:
        out += "flap(p=";
        out += FormatSpecNumber(event.flap_p);
        out += ",period=";
        out += std::to_string(event.flap_period_ns);
        out += ')';
        break;
    }
  }
  return out;
}

bool FlapSlotDown(uint32_t endpoint, uint64_t slot, double p) {
  uint64_t state = kFlapSalt ^ (static_cast<uint64_t>(endpoint) << 32) ^ slot;
  const uint64_t draw = SplitMix64Next(state);
  const double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return unit < p;
}

}  // namespace hybridtier
