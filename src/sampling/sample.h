#ifndef HYBRIDTIER_SAMPLING_SAMPLE_H_
#define HYBRIDTIER_SAMPLING_SAMPLE_H_

/**
 * @file
 * Access-sample record, the unit of the PEBS/IBS-analogue event stream.
 *
 * Real PEBS delivers the exact virtual address of a sampled load plus the
 * data source (local DRAM vs. CXL). Our sampler delivers the same
 * information about the simulated access stream (paper §4.1 step 2).
 */

#include <cstddef>
#include <cstdint>

#include "common/units.h"
#include "mem/page.h"
#include "mem/tier.h"

namespace hybridtier {

/** PEBS sampling period: mean accesses between two samples. */
inline constexpr uint64_t kSamplePeriod = 61;

/** PEBS sample buffer depth, in records. */
inline constexpr size_t kSampleBuffer = 8192;

/** One sampled memory access. */
struct SampleRecord {
  PageId page = kInvalidPage;  //!< Tracking unit that was accessed.
  Tier tier = Tier::kSlow;     //!< Tier that served the access.
  TimeNs time_ns = 0;          //!< Virtual time of the access.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_SAMPLING_SAMPLE_H_
