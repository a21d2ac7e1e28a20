#ifndef HYBRIDTIER_TESTS_REFERENCE_COLDEST_SELECTION_H_
#define HYBRIDTIER_TESTS_REFERENCE_COLDEST_SELECTION_H_

/**
 * @file
 * Reference fair-share victim selection, written from its contract
 * alone: key every unit by (hotness, endpoint cost, unit) -- by
 * (hotness, unit) when blind -- sort the whole candidate list by that
 * key, keep the first `take`, and list them in ascending address order.
 */

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "mem/page.h"

namespace hybridtier::reference {

/**
 * @param units    candidate units.
 * @param hotness  hotness of each unit.
 * @param cost     endpoint cost of each unit (all equal when blind).
 * @param take     units to keep.
 */
inline std::vector<PageId> SelectColdest(const std::vector<PageId>& units,
                                         const std::vector<uint32_t>& hotness,
                                         const std::vector<uint32_t>& cost,
                                         uint64_t take) {
  std::vector<std::tuple<uint32_t, uint32_t, PageId>> keyed;
  for (size_t i = 0; i < units.size(); ++i) {
    keyed.emplace_back(hotness[i], cost[i], units[i]);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<PageId> chosen;
  for (uint64_t i = 0; i < take; ++i) chosen.push_back(std::get<2>(keyed[i]));
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace hybridtier::reference

#endif  // HYBRIDTIER_TESTS_REFERENCE_COLDEST_SELECTION_H_
