#ifndef HYBRIDTIER_MEM_TOPOLOGY_H_
#define HYBRIDTIER_MEM_TOPOLOGY_H_

/**
 * @file
 * CXL device topology: N slow-tier endpoints behind optional switches.
 *
 * The paper's emulation models one monolithic CXL device, but real
 * deployments hang several expanders off switches, each with its own
 * idle latency, bandwidth, and congestion state, with an HDM decoder
 * interleaving host physical addresses across them (CXLMemSim-style
 * topology strings). A `Topology` describes that device tree:
 *
 *   cxl:(1,(2,3,4)),lat=124:180:180:180,bw=34:17:17:17,link=40,gran=64
 *
 * Grammar: `cxl:(TREE)` followed by optional comma-separated
 * `key=value` pairs. The tree lists children of the host root port:
 * an integer is a direct-attached endpoint, a parenthesized integer
 * list is a switch whose members share one uplink. Endpoint ids must
 * be exactly 1..N (each once, any order); at most one switch level is
 * modeled — a switch may not contain another switch.
 *
 *   lat=a:b:...   per-endpoint idle latency, in id order: spec times,
 *                 bare ns or a ns/us/ms/s suffix (default 124 each —
 *                 the paper's emulated CXL device)
 *   bw=a:b:...    per-endpoint bandwidth in GB/s, in id order
 *                 (default 34 each)
 *   link=a:b:...  per-switch uplink bandwidth in GB/s, in order of
 *                 appearance in the tree (default: the sum of the
 *                 member endpoints' bandwidth — a non-saturating link)
 *   gran=n        HDM interleave granularity in tracking units: unit u
 *                 lives on endpoint (u / n) % N (default 1)
 *
 * `cxl:(1)` with the default knobs is the paper's single slow device,
 * and it is what the simulator runs when no topology is configured.
 * The HDM decode itself lives in `TieredMemory::EndpointOf`.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "mem/page.h"

namespace hybridtier {

/** One CXL endpoint (memory expander) hanging off the device tree. */
struct TopologyEndpoint {
  TimeNs idle_latency_ns = 124;  //!< Unloaded access latency.
  double bandwidth_gbps = 34.0;  //!< Device-port bandwidth.
  /** Switch this endpoint sits behind, or kDirectAttached. */
  int32_t switch_id = -1;

  bool operator==(const TopologyEndpoint& other) const = default;
};

/** A switch whose member endpoints share one uplink to the host. */
struct TopologySwitch {
  double link_gbps = 0.0;         //!< Shared uplink bandwidth.
  std::vector<uint32_t> members;  //!< Endpoint indices (0-based).

  bool operator==(const TopologySwitch& other) const = default;
};

/** The slow-tier device tree plus the HDM interleave granularity. */
struct Topology {
  std::vector<TopologyEndpoint> endpoints;
  std::vector<TopologySwitch> switches;
  /** Tracking units mapped to one endpoint before moving to the next. */
  uint64_t interleave_units = 1;

  bool operator==(const Topology& other) const = default;

  /** Number of endpoints (>= 1 for any valid topology). */
  uint32_t endpoint_count() const {
    return static_cast<uint32_t>(endpoints.size());
  }
};

/** Endpoint id cap: HDM decoders interleave across small device sets. */
inline constexpr uint32_t kMaxTopologyEndpoints = 64;

/** Today's device: one endpoint, paper-default latency and bandwidth. */
Topology DefaultTopology();

/** True iff `text` is a topology spec (starts with "cxl:"). */
bool IsTopologySpec(const std::string& text);

/**
 * Parses a topology spec string. Malformed input, a missing "cxl:"
 * prefix included, is a user error reported through the spec reader
 * (bad token and byte offset, exit 1).
 */
Topology ParseTopologySpec(const std::string& text);

/**
 * Formats `topology` back into the grammar above with every knob
 * explicit (lat/bw lists, per-switch links, granularity); switch
 * members are listed in member order and each switch appears at its
 * smallest member id's position in the id-ordered child list.
 * `ParseTopologySpec(FormatTopologySpec(t)) == t` for any valid
 * topology.
 */
std::string FormatTopologySpec(const Topology& topology);

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_TOPOLOGY_H_
