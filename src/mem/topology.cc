#include "mem/topology.h"

#include <algorithm>

#include "common/logging.h"
#include "common/spec_reader.h"

namespace hybridtier {

namespace {

constexpr char kPrefix[] = "cxl:";

/**
 * Reads one endpoint id of the device tree and places the endpoint
 * (slot id-1) behind `switch_id` (-1 = direct-attached). Returns the
 * 0-based endpoint index.
 */
uint32_t ReadEndpoint(SpecReader& reader, int32_t switch_id,
                      std::vector<bool>& seen, Topology* out) {
  const SpecReader id_start = reader;
  const auto id = static_cast<uint32_t>(
      reader.ReadUint("endpoint id", 1, kMaxTopologyEndpoints));
  if (seen.size() < id) seen.resize(id, false);
  if (seen[id - 1]) id_start.Fail("endpoint id repeats");
  seen[id - 1] = true;
  if (out->endpoints.size() < id) out->endpoints.resize(id);
  out->endpoints[id - 1].switch_id = switch_id;
  return id - 1;
}

/**
 * Parses the device tree `(child,child,...)` where a child is an
 * endpoint id or a one-level switch `(id,id,...)`. Fills endpoint
 * slots (indexed by id-1) and the switch list in order of appearance.
 */
void ParseTree(SpecReader& reader, Topology* out) {
  const SpecReader tree_start = reader;
  if (!reader.Consume("(")) {
    reader.Fail("spec must start with a device tree '(...)'");
  }
  if (reader.Consume(")")) {
    tree_start.Fail("device tree must be a parenthesized child list");
  }
  // After a child or switch member: ',' continues its list, ')' ends it.
  const auto list_continues = [&] {
    if (reader.Consume(",")) return true;
    if (reader.Consume(")")) return false;
    if (reader.AtEnd()) tree_start.Fail("unbalanced parentheses");
    reader.Fail("expected ',' or ')' after a device-tree child");
  };
  std::vector<bool> seen;
  do {
    if (!reader.Consume("(")) {
      ReadEndpoint(reader, /*switch_id=*/-1, seen, out);
      continue;
    }
    // A switch: a flat id list (nested switches are not modeled).
    const auto switch_id = static_cast<int32_t>(out->switches.size());
    out->switches.emplace_back();
    do {
      const SpecReader member = reader;
      if (reader.Consume("(")) {
        member.Fail("a switch nests inside a switch; only one switch "
                    "level is modeled");
      }
      out->switches.back().members.push_back(
          ReadEndpoint(reader, switch_id, seen, out));
    } while (list_continues());
  } while (list_continues());
  for (size_t i = 0; i < out->endpoints.size(); ++i) {
    if (!seen[i]) {
      tree_start.Fail(detail::StrCat(
          "names ", out->endpoints.size(), " endpoints but is missing id ",
          i + 1, " (ids must be exactly 1..N)"));
    }
  }
}

/** Reads a ':'-separated list of bandwidths in GB/s, each > 0. */
std::vector<double> ReadBandwidths(SpecReader& reader, const char* what) {
  std::vector<double> values;
  do {
    const SpecReader value = reader;
    values.push_back(reader.ReadNumber(what));
    if (!(values.back() > 0.0)) {
      value.Fail(std::string(what) + " must be positive");
    }
  } while (reader.Consume(":"));
  return values;
}

/** Checks a topology built in code before it is formatted. */
void Validate(const Topology& topology) {
  if (topology.endpoints.empty() ||
      topology.endpoints.size() > kMaxTopologyEndpoints) {
    HT_FATAL("topology needs 1..", kMaxTopologyEndpoints, " endpoints, has ",
             topology.endpoints.size());
  }
  for (const TopologyEndpoint& endpoint : topology.endpoints) {
    if (endpoint.bandwidth_gbps <= 0.0) {
      HT_FATAL("topology endpoint bandwidth must be positive");
    }
    if (endpoint.switch_id >= 0 &&
        static_cast<size_t>(endpoint.switch_id) >=
            topology.switches.size()) {
      HT_FATAL("topology endpoint references a missing switch");
    }
  }
  for (const TopologySwitch& sw : topology.switches) {
    if (sw.link_gbps <= 0.0) {
      HT_FATAL("topology switch link bandwidth must be positive");
    }
    if (sw.members.empty()) HT_FATAL("topology switch has no members");
  }
  if (topology.interleave_units == 0) {
    HT_FATAL("topology interleave granularity must be positive");
  }
}

}  // namespace

Topology DefaultTopology() {
  Topology topology;
  topology.endpoints.emplace_back();
  return topology;
}

bool IsTopologySpec(const std::string& text) {
  return text.rfind(kPrefix, 0) == 0;
}

Topology ParseTopologySpec(const std::string& text) {
  SpecReader reader{text};
  if (!reader.Consume(kPrefix)) {
    reader.Fail("topology spec must start with 'cxl:'");
  }
  Topology topology;
  ParseTree(reader, &topology);
  const size_t endpoints = topology.endpoints.size();
  const size_t switches = topology.switches.size();

  std::vector<double> link_list;
  while (!reader.AtEnd()) {
    if (!reader.Consume(",")) {
      reader.Fail("expected ',' before each topology key");
    }
    const SpecReader key_start = reader;
    const std::string key = reader.ReadWord();
    if (!reader.Consume("=")) key_start.Fail("expected key=value");
    const SpecReader value_start = reader;
    if (key == "lat") {
      std::vector<TimeNs> lat;
      do {
        lat.push_back(reader.ReadTime("endpoint latency"));
      } while (reader.Consume(":"));
      if (lat.size() != endpoints) {
        value_start.Fail(detail::StrCat("lists ", lat.size(),
                                        " latencies for ", endpoints,
                                        " endpoints"));
      }
      for (size_t i = 0; i < endpoints; ++i) {
        topology.endpoints[i].idle_latency_ns = lat[i];
      }
    } else if (key == "bw") {
      const std::vector<double> bw =
          ReadBandwidths(reader, "endpoint bandwidth");
      if (bw.size() != endpoints) {
        value_start.Fail(detail::StrCat("lists ", bw.size(),
                                        " bandwidths for ", endpoints,
                                        " endpoints"));
      }
      for (size_t i = 0; i < endpoints; ++i) {
        topology.endpoints[i].bandwidth_gbps = bw[i];
      }
    } else if (key == "link") {
      link_list = ReadBandwidths(reader, "switch link bandwidth");
      if (link_list.size() != switches) {
        value_start.Fail(detail::StrCat("lists ", link_list.size(),
                                        " switch links for ", switches,
                                        " switches"));
      }
    } else if (key == "gran") {
      topology.interleave_units = reader.ReadUint("gran", 1);
    } else {
      key_start.Fail("unknown topology key");
    }
  }

  for (size_t s = 0; s < switches; ++s) {
    if (!link_list.empty()) {
      topology.switches[s].link_gbps = link_list[s];
    } else {
      // Default: a non-saturating uplink — the sum of the member
      // ports, so the switch never queues unless configured to.
      double sum = 0.0;
      for (const uint32_t member : topology.switches[s].members) {
        sum += topology.endpoints[member].bandwidth_gbps;
      }
      topology.switches[s].link_gbps = sum;
    }
  }
  return topology;
}

std::string FormatTopologySpec(const Topology& topology) {
  Validate(topology);
  // Canonical tree: children in endpoint-id order, each switch emitted
  // once at its smallest member id's position, members in stored order.
  std::string tree = "(";
  bool first_child = true;
  for (size_t i = 0; i < topology.endpoints.size(); ++i) {
    const int32_t sw = topology.endpoints[i].switch_id;
    std::string child;
    if (sw < 0) {
      child = std::to_string(i + 1);
    } else {
      const TopologySwitch& s =
          topology.switches[static_cast<size_t>(sw)];
      const uint32_t smallest =
          *std::min_element(s.members.begin(), s.members.end());
      if (smallest != i) continue;  // Emitted at the smallest member.
      child = "(";
      for (size_t m = 0; m < s.members.size(); ++m) {
        if (m != 0) child += ",";
        child += std::to_string(s.members[m] + 1);
      }
      child += ")";
    }
    if (!first_child) tree += ",";
    tree += child;
    first_child = false;
  }
  tree += ")";

  std::string out = kPrefix + tree;
  out += ",lat=";
  for (size_t i = 0; i < topology.endpoints.size(); ++i) {
    if (i != 0) out += ":";
    out += std::to_string(topology.endpoints[i].idle_latency_ns);
  }
  out += ",bw=";
  for (size_t i = 0; i < topology.endpoints.size(); ++i) {
    if (i != 0) out += ":";
    out += FormatSpecNumber(topology.endpoints[i].bandwidth_gbps);
  }
  if (!topology.switches.empty()) {
    out += ",link=";
    for (size_t s = 0; s < topology.switches.size(); ++s) {
      if (s != 0) out += ":";
      out += FormatSpecNumber(topology.switches[s].link_gbps);
    }
  }
  out += ",gran=" + std::to_string(topology.interleave_units);
  return out;
}

}  // namespace hybridtier
