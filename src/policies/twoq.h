#ifndef HYBRIDTIER_POLICIES_TWOQ_H_
#define HYBRIDTIER_POLICIES_TWOQ_H_

/**
 * @file
 * TwoQ baseline (Johnson & Shasha, VLDB'94) adapted to memory tiering
 * per the paper's methodology (§5.2, §6.1): A1in is a FIFO of
 * once-accessed pages, A1out a ghost FIFO remembering pages evicted
 * from A1in, and Am an LRU of pages re-referenced out of A1out. The
 * paper uses the original parameter defaults Kin = c/4, Kout = c/2.
 * As with ARC, a full miss admits (promotes) the page directly.
 */

#include <cstdint>

#include "policies/list_cache.h"
#include "policies/lru_list.h"

namespace hybridtier {

/** TwoQ tiering baseline. */
class TwoQPolicy final : public ListCachePolicy {
 public:
  TwoQPolicy() : ListCachePolicy(0x5a5a5a5aULL) {}

  void Bind(const PolicyContext& context) override;
  void OnSample(const SampleRecord& sample) override;

  size_t MetadataBytes() const override;
  const char* name() const override { return "TwoQ"; }

  /** Sizes of the three queues (A1in, A1out, Am). */
  size_t a1in_size() const { return a1in_.size(); }
  size_t a1out_size() const { return a1out_.size(); }
  size_t am_size() const { return am_.size(); }

 private:
  /** Frees one cached slot per the 2Q reclaim rule. */
  void ReclaimOne(TimeNs now);

  LruList a1in_, a1out_, am_;
  uint64_t kin_ = 0;
  uint64_t kout_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_TWOQ_H_
