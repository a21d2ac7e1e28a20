#include "policies/twoq.h"

#include <algorithm>

namespace hybridtier {

void TwoQPolicy::Bind(const PolicyContext& context) {
  ListCachePolicy::Bind(context);
  // Original-paper defaults (HybridTier paper §6.1): Kin = c/4,
  // Kout = c/2.
  kin_ = std::max<uint64_t>(1, capacity_ / 4);
  kout_ = std::max<uint64_t>(1, capacity_ / 2);
}

void TwoQPolicy::ReclaimOne(TimeNs now) {
  if (a1in_.size() >= kin_ && !a1in_.empty()) {
    // Evict the FIFO tail of A1in into the ghost queue.
    const PageId victim = a1in_.PopLru();
    a1out_.PushMru(victim);
    DemoteUnit(victim, now);
    if (a1out_.size() > kout_) a1out_.PopLru();
  } else if (!am_.empty()) {
    const PageId victim = am_.PopLru();
    DemoteUnit(victim, now);
  } else if (!a1in_.empty()) {
    const PageId victim = a1in_.PopLru();
    a1out_.PushMru(victim);
    DemoteUnit(victim, now);
    if (a1out_.size() > kout_) a1out_.PopLru();
  }
}

void TwoQPolicy::OnSample(const SampleRecord& sample) {
  const PageId x = sample.page;
  const TimeNs now = sample.time_ns;
  if (capacity_ == 0) return;
  TouchListMetadata(x);

  // Hit in Am: plain LRU behaviour.
  if (am_.MoveToMru(x)) return;

  // Hit in A1in: correlated reference, leave position unchanged.
  if (a1in_.Contains(x)) return;

  // Hit in the ghost queue: the page earned its way into Am.
  if (a1out_.Contains(x)) {
    if (a1in_.size() + am_.size() >= capacity_) ReclaimOne(now);
    a1out_.Remove(x);
    am_.PushMru(x);
    PromoteUnit(x, now);
    return;
  }

  // Full miss: admit into A1in (lenient promotion, as in the paper).
  if (a1in_.size() + am_.size() >= capacity_) ReclaimOne(now);
  a1in_.PushMru(x);
  PromoteUnit(x, now);
}

size_t TwoQPolicy::MetadataBytes() const {
  return a1in_.memory_bytes() + a1out_.memory_bytes() + am_.memory_bytes();
}

}  // namespace hybridtier
