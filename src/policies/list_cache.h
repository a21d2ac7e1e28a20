#ifndef HYBRIDTIER_POLICIES_LIST_CACHE_H_
#define HYBRIDTIER_POLICIES_LIST_CACHE_H_

/**
 * @file
 * Base of the list-cache baselines (ARC, TwoQ) adapted to memory
 * tiering per the paper's methodology (§5.2): the fast tier is the
 * "cache", sampled accesses are the reference stream, and admission or
 * eviction moves one page at a time. The base holds the cache size, the
 * single-page migrations, and the metadata-traffic model of the exact
 * list + hash-map structures; subclasses keep only their lists and
 * replacement rules.
 */

#include <cstdint>

#include "policies/policy.h"

namespace hybridtier {

/** Sample-driven list-cache tiering baseline. */
class ListCachePolicy : public TieringPolicy {
 public:
  void Bind(const PolicyContext& context) override;
  /** Sample-driven: never observes the demand stream (OnAccess stays
   *  the inherited no-op), so per-access dispatch is skipped. */
  AccessInterest access_interest() const final {
    return AccessInterest::kNone;
  }

 protected:
  /** @param map_salt hash salt placing the policy's map buckets. */
  explicit ListCachePolicy(uint64_t map_salt) : map_salt_(map_salt) {}

  /** Demotes `unit` to the slow tier (single-page migration). */
  void DemoteUnit(PageId unit, TimeNs now);

  /** Promotes `unit` to the fast tier (single-page migration). */
  void PromoteUnit(PageId unit, TimeNs now);

  /** Touches the scattered metadata lines of one list operation. */
  void TouchListMetadata(PageId unit);

  uint64_t capacity_ = 0;  //!< c = fast-tier units.

 private:
  uint64_t map_salt_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_LIST_CACHE_H_
