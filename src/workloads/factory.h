#ifndef HYBRIDTIER_WORKLOADS_FACTORY_H_
#define HYBRIDTIER_WORKLOADS_FACTORY_H_

/**
 * @file
 * Workload factory: builds any of the paper's 12 workload/input pairs by
 * id. Benches and examples use this to sweep the full evaluation matrix.
 *
 * Ids: "cdn", "social", "bfs-k", "bfs-u", "cc-k", "cc-u", "pr-k",
 * "pr-u", "bwaves", "roms", "silo", "xgboost", plus the synthetic
 * "zipf" hot-set generator (valid everywhere but excluded from
 * `AllWorkloadIds`, which stays in paper sweep order).
 *
 * The `scale` parameter shrinks or grows footprints relative to the
 * bench defaults (tests use ~0.1, benches 0.5-1.0). Generated GAP graphs
 * are cached per (kind, scale) within the process since multiple policy
 * runs sweep the same workload.
 */

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "workloads/cachelib.h"
#include "workloads/workload.h"

namespace hybridtier {

/** All workload ids in paper order (Fig 10/16 order). */
const std::vector<std::string>& AllWorkloadIds();

/** True if `id` names a known workload. */
bool IsWorkloadId(const std::string& id);

/**
 * Default footprint scale for `id`, used by `ht_run` and every bench:
 * CacheLib 0.1, SPEC/Silo 0.25, XGBoost 0.5, graphs 2.0, zipf 1.0.
 * Each footprint is far larger than the modeled LLC while full sweeps
 * stay within their access budgets.
 */
double DefaultWorkloadScale(const std::string& id);

/**
 * Builds the workload `id` at the given footprint scale. For CacheLib
 * workloads, `churn` schedules popularity-churn events (ignored by other
 * workloads). Fatal on unknown id.
 */
std::unique_ptr<Workload> MakeWorkload(
    const std::string& id, double scale = 1.0, uint64_t seed = 42,
    const std::vector<ChurnEvent>& churn = {});

}  // namespace hybridtier

#endif  // HYBRIDTIER_WORKLOADS_FACTORY_H_
