#include "fault/watchdog.h"

#include "common/logging.h"

namespace hybridtier {

InvariantWatchdog::InvariantWatchdog(const TieredMemory* memory,
                                     const LatencyAttribution* attribution)
    : memory_(memory), attribution_(attribution) {
  HT_ASSERT(memory != nullptr, "watchdog needs the memory substrate");
  checks_.push_back({"memory_accounting", [this](std::string* error) {
                       return CheckMemoryAccounting(error);
                     }});
  checks_.push_back({"attribution_identity", [this](std::string* error) {
                       return CheckAttributionIdentity(error);
                     }});
}

void InvariantWatchdog::RegisterCheck(
    const std::string& name, std::function<bool(std::string*)> check) {
  checks_.push_back({name, std::move(check)});
}

void InvariantWatchdog::RegisterSource(const std::string& name,
                                       const InvariantSource* source) {
  HT_ASSERT(source != nullptr, "null invariant source");
  checks_.push_back({name, [source](std::string* error) {
                       return source->CheckInvariants(error);
                     }});
}

bool InvariantWatchdog::CheckMemoryAccounting(std::string* error) const {
  const uint32_t endpoints = memory_->endpoint_count();
  std::vector<uint64_t> slow_by_endpoint(endpoints, 0);
  std::vector<uint64_t> fast_by_home(endpoints, 0);
  // Per-region recount, indexed [tier][region]; empty without regions.
  const uint32_t regions = memory_->region_count();
  std::vector<uint64_t> by_region[kNumTiers] = {
      std::vector<uint64_t>(regions, 0), std::vector<uint64_t>(regions, 0)};
  const auto count_region = [&](PageId page, Tier tier) {
    if (regions == 0) return;
    const uint32_t region = memory_->RegionOf(page);
    if (region != TieredMemory::kNoRegion) {
      ++by_region[static_cast<size_t>(tier)][region];
    }
  };
  uint64_t fast_used = 0;
  uint64_t slow_used = 0;
  memory_->ScanResident(0, memory_->total_pages(), Tier::kFast,
                        [&](PageId page) {
                          ++fast_used;
                          ++fast_by_home[memory_->EndpointOf(page)];
                          count_region(page, Tier::kFast);
                        });
  memory_->ScanResident(0, memory_->total_pages(), Tier::kSlow,
                        [&](PageId page) {
                          ++slow_used;
                          ++slow_by_endpoint[memory_->EndpointOf(page)];
                          count_region(page, Tier::kSlow);
                        });
  if (fast_used != memory_->UsedPages(Tier::kFast) ||
      slow_used != memory_->UsedPages(Tier::kSlow)) {
    *error = detail::StrCat(
        "used-page counters diverge from the flag recount: fast ",
        memory_->UsedPages(Tier::kFast), " vs ", fast_used, ", slow ",
        memory_->UsedPages(Tier::kSlow), " vs ", slow_used);
    return false;
  }
  if (memory_->UsedPages(Tier::kFast) > memory_->Capacity(Tier::kFast) ||
      memory_->UsedPages(Tier::kSlow) > memory_->Capacity(Tier::kSlow)) {
    *error = "a tier reports more used pages than its capacity";
    return false;
  }
  for (uint32_t e = 0; e < endpoints; ++e) {
    if (memory_->EndpointResident(e) != slow_by_endpoint[e]) {
      *error = detail::StrCat("endpoint ", e,
                              " slow-resident mirror diverges: ",
                              memory_->EndpointResident(e), " vs recount ",
                              slow_by_endpoint[e]);
      return false;
    }
    if (memory_->EndpointHomedFastResident(e) != fast_by_home[e]) {
      *error = detail::StrCat("endpoint ", e,
                              " fast-resident-by-home mirror diverges: ",
                              memory_->EndpointHomedFastResident(e),
                              " vs recount ", fast_by_home[e]);
      return false;
    }
  }
  for (uint32_t r = 0; r < regions; ++r) {
    for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
      const uint64_t tally = memory_->RegionResident(r, tier);
      const uint64_t recount = by_region[static_cast<size_t>(tier)][r];
      if (tally != recount) {
        *error = detail::StrCat("region ", r, " ", TierName(tier),
                                " tally diverges: ", tally, " vs recount ",
                                recount);
        return false;
      }
    }
  }
  return true;
}

bool InvariantWatchdog::CheckAttributionIdentity(std::string* error) const {
  if (attribution_ == nullptr) return true;
  const uint64_t components = attribution_->ComponentSumNs();
  const uint64_t latency = attribution_->op_latency_ns();
  if (components != latency) {
    *error = detail::StrCat("attribution identity broken: components sum ",
                            components, " ns vs op latency ", latency,
                            " ns");
    return false;
  }
  return true;
}

bool InvariantWatchdog::RunChecks(TimeNs now) {
  bool ok = true;
  for (const NamedCheck& check : checks_) {
    ++checks_run_;
    std::string error;
    if (!check.check(&error)) {
      ++violations_;
      last_error_ = detail::StrCat("[", check.name, "] at t=", now, "ns: ",
                                   error);
      ok = false;
    }
  }
  return ok;
}

}  // namespace hybridtier
