#ifndef HYBRIDTIER_TESTS_REFERENCE_HDM_DECODE_H_
#define HYBRIDTIER_TESTS_REFERENCE_HDM_DECODE_H_

/**
 * @file
 * Reference HDM decode, written from the interleave contract alone:
 * units are striped over the endpoints `interleave_units` at a time,
 * round robin, so a page's home endpoint is its stripe number modulo
 * the endpoint count.
 */

#include <cstdint>

namespace hybridtier::reference {

/** Home endpoint of `page`: `(page / interleave_units) % endpoints`. */
inline uint32_t EndpointOf(uint64_t page, uint32_t endpoints,
                           uint64_t interleave_units) {
  return static_cast<uint32_t>((page / interleave_units) % endpoints);
}

}  // namespace hybridtier::reference

#endif  // HYBRIDTIER_TESTS_REFERENCE_HDM_DECODE_H_
