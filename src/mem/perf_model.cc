#include "mem/perf_model.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {
namespace {

constexpr TimeNs kMigrationPageNs = 1200;     // Per-4KiB-page CPU cost.
constexpr TimeNs kMigrationSyscallNs = 4000;  // Per-move_pages overhead.

}  // namespace

PerfModel::PerfModel(const PerfModelConfig& config, const TierConfig& fast,
                     const Topology& topology)
    : topology_(topology) {
  HT_ASSERT(fast.bandwidth_gbps > 0, "tier bandwidth must be positive");
  HT_ASSERT(config.threads >= 1, "threads must be >= 1");
  HT_ASSERT(!topology.endpoints.empty(), "topology needs endpoints");
  // A demand line fill occupies the channel for one line per
  // thread-share: 16 threads issuing concurrently are folded into one
  // modeled stream, so each modeled access stands for `threads` line
  // transfers of pressure. All operands are run constants, so each
  // channel's occupancy is computed once here instead of per access.
  access_bytes_ = kCacheLineSize * config.threads;
  max_queue_delay_ns_ = static_cast<TimeNs>(config.max_queue_delay_ns);

  fast_idle_latency_ns_ = fast.idle_latency_ns;
  fast_bandwidth_gbps_ = fast.bandwidth_gbps;
  fast_.access_service = TransferTime(fast.bandwidth_gbps, access_bytes_);

  endpoints_.reserve(topology.endpoints.size());
  for (const TopologyEndpoint& spec : topology.endpoints) {
    HT_ASSERT(spec.bandwidth_gbps > 0,
              "endpoint bandwidth must be positive");
    Endpoint endpoint;
    endpoint.idle_latency_ns = spec.idle_latency_ns;
    endpoint.bandwidth_gbps = spec.bandwidth_gbps;
    endpoint.link = spec.switch_id;
    endpoint.access_service =
        TransferTime(spec.bandwidth_gbps, access_bytes_);
    endpoint.base_idle_latency_ns = endpoint.idle_latency_ns;
    endpoint.base_bandwidth_gbps = endpoint.bandwidth_gbps;
    endpoints_.push_back(endpoint);
  }
  links_.reserve(topology.switches.size());
  for (const TopologySwitch& spec : topology.switches) {
    HT_ASSERT(spec.link_gbps > 0, "switch link must be positive");
    Channel link;
    link.access_service = TransferTime(spec.link_gbps, access_bytes_);
    links_.push_back(link);
  }
}

void PerfModel::SetEndpointDegrade(uint32_t endpoint, double factor) {
  HT_ASSERT(factor >= 1.0, "degrade factor must be >= 1");
  Endpoint& e = endpoints_[endpoint];
  // Always derived from the healthy baseline so successive factors
  // replace each other instead of compounding.
  e.idle_latency_ns =
      static_cast<TimeNs>(static_cast<double>(e.base_idle_latency_ns) *
                          factor);
  e.bandwidth_gbps = e.base_bandwidth_gbps / factor;
  e.access_service = TransferTime(e.bandwidth_gbps, access_bytes_);
}

TimeNs PerfModel::TransferTime(double gbps, uint64_t bytes) {
  // bytes / (GB/s) = bytes / (bytes/ns * 1e0): 1 GB/s == 1 byte/ns.
  const double ns = static_cast<double>(bytes) / gbps;
  return std::max<TimeNs>(static_cast<TimeNs>(ns), 1);
}

TimeNs PerfModel::OccupyFast(uint64_t bytes, TimeNs now) {
  const TimeNs duration = TransferTime(fast_bandwidth_gbps_, bytes);
  Advance(&fast_.busy_until, duration, now);
  fast_.bytes += bytes;
  return duration;
}

TimeNs PerfModel::OccupyEndpoint(uint32_t endpoint, uint64_t bytes,
                                 TimeNs now) {
  Endpoint& e = endpoints_[endpoint];
  const TimeNs duration = TransferTime(e.bandwidth_gbps, bytes);
  Advance(&e.busy_until, duration, now);
  e.bytes += bytes;
  if (e.link >= 0) {
    Channel& link = links_[static_cast<size_t>(e.link)];
    // The uplink carries the same bytes at its own rate.
    Advance(&link.busy_until,
            TransferTime(topology_.switches[static_cast<size_t>(e.link)]
                             .link_gbps,
                         bytes),
            now);
    link.bytes += bytes;
  }
  return duration;
}

TimeNs PerfModel::MigrationCost(std::span<const uint64_t> pages_per_endpoint,
                                uint64_t page_bytes, TimeNs now) {
  HT_ASSERT(pages_per_endpoint.size() == endpoints_.size(),
            "per-endpoint page counts must cover every endpoint");
  uint64_t num_pages = 0;
  for (const uint64_t count : pages_per_endpoint) num_pages += count;
  if (num_pages == 0) return 0;
  // The fast channel carries the whole batch; each endpoint port (and
  // its uplink) carries only its own pages. The copy phase ends when
  // the slowest leg finishes — the batch syscall returns once every
  // page has moved.
  const TimeNs copy_fast = OccupyFast(num_pages * page_bytes, now);
  TimeNs copy_slow = 0;
  for (uint32_t e = 0; e < pages_per_endpoint.size(); ++e) {
    if (pages_per_endpoint[e] == 0) continue;
    copy_slow = std::max(
        copy_slow,
        OccupyEndpoint(e, pages_per_endpoint[e] * page_bytes, now));
  }
  const TimeNs kernel_cost =
      kMigrationSyscallNs +
      num_pages * kMigrationPageNs * (page_bytes / kPageSize);
  return kernel_cost + std::max(copy_fast, copy_slow);
}

}  // namespace hybridtier
