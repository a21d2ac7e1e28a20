#include "multitenant/tenant.h"

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

double TenantDirectory::TotalWeight() const {
  double total = 0.0;
  for (const TenantRegion& region : regions) total += region.weight;
  return total;
}

}  // namespace hybridtier
