#include "multitenant/tenant.h"

#include <algorithm>
#include <tuple>

#include "common/spec_reader.h"
#include "multitenant/fleet.h"
#include "workloads/factory.h"

namespace hybridtier {

std::vector<TenantSpec> ParseTenantList(const std::string& list) {
  // A generator spec ("fleet:1000,zipf=0.9,...") expands to the whole
  // tenant population; it is never mixed with explicit entries.
  if (IsFleetSpec(list)) return MakeFleetSpecs(ParseFleetSpec(list));
  SpecReader reader{list};
  std::vector<TenantSpec> specs;
  for (;;) {
    TenantSpec spec;
    const SpecReader id = reader;
    spec.workload_id = reader.ReadWord();
    if (!IsWorkloadId(spec.workload_id)) id.Fail("unknown workload id");
    if (reader.Consume(":")) {
      const SpecReader weight = reader;
      spec.weight = reader.ReadNumber("tenant weight");
      if (!(spec.weight > 0.0)) weight.Fail("tenant weight must be > 0");
    }
    // Optional "@window[+window...]" residency windows.
    if (reader.Consume("@")) {
      do {
        const SpecReader window_start = reader;
        ResidencyWindow window;
        window.arrival_ns = reader.ReadTime("arrival time");
        if (reader.Consume("-")) {
          window.departure_ns = reader.ReadTime("departure time");
          if (window.departure_ns <= window.arrival_ns) {
            window_start.Fail("tenant window must depart after it arrives");
          }
        }
        if (!spec.windows.empty()) {
          const ResidencyWindow& previous = spec.windows.back();
          if (previous.departure_ns == 0) {
            window_start.Fail("only the last of several tenant windows "
                              "may be open-ended");
          }
          if (window.arrival_ns <= previous.departure_ns) {
            window_start.Fail("tenant windows must be disjoint and in "
                              "increasing order");
          }
        }
        spec.windows.push_back(window);
      } while (reader.Consume("+"));
    }
    specs.push_back(std::move(spec));
    if (reader.AtEnd()) return specs;
    if (!reader.Consume(",")) {
      reader.Fail("expected ',' between tenant entries");
    }
  }
}

ResidencySchedule::ResidencySchedule(const TenantDirectory& directory) {
  for (uint32_t t = 0; t < directory.size(); ++t) {
    for (const ResidencyWindow& window : directory.regions[t].windows) {
      AddWindow(t, window.arrival_ns, window.departure_ns);
    }
  }
  Sort();
}

ResidencySchedule::ResidencySchedule(const TenantTagSource& tenants) {
  for (uint32_t t = 0; t < tenants.tenant_count(); ++t) {
    for (const auto& [arrival_ns, departure_ns] : tenants.tenant_windows(t)) {
      AddWindow(t, arrival_ns, departure_ns);
    }
  }
  Sort();
}

void ResidencySchedule::AddWindow(uint32_t tenant, TimeNs arrival_ns,
                                  TimeNs departure_ns) {
  if (arrival_ns != 0) edges_.push_back(Edge{arrival_ns, tenant, true});
  if (departure_ns != 0) edges_.push_back(Edge{departure_ns, tenant, false});
}

void ResidencySchedule::Sort() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.at, a.tenant, a.arrival) <
           std::tie(b.at, b.tenant, b.arrival);
  });
  cursor_ = 0;
  next_at_ = edges_.empty() ? kNever : edges_.front().at;
}

}  // namespace hybridtier
