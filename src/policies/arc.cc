#include "policies/arc.h"

#include <algorithm>

namespace hybridtier {

void ArcPolicy::Replace(PageId incoming, bool in_b2, TimeNs now) {
  if (!t1_.empty() &&
      (t1_.size() > p_ || (in_b2 && t1_.size() == p_))) {
    const PageId victim = t1_.PopLru();
    b1_.PushMru(victim);
    DemoteUnit(victim, now);
  } else if (!t2_.empty()) {
    const PageId victim = t2_.PopLru();
    b2_.PushMru(victim);
    DemoteUnit(victim, now);
  } else if (!t1_.empty()) {
    const PageId victim = t1_.PopLru();
    b1_.PushMru(victim);
    DemoteUnit(victim, now);
  }
  (void)incoming;
}

void ArcPolicy::OnSample(const SampleRecord& sample) {
  const PageId x = sample.page;
  const TimeNs now = sample.time_ns;
  if (capacity_ == 0) return;
  TouchListMetadata(x);

  // Case I: hit in T1 or T2.
  if (t1_.Contains(x)) {
    t1_.Remove(x);
    t2_.PushMru(x);
    return;
  }
  if (t2_.MoveToMru(x)) return;

  // Case II: ghost hit in B1 — recency is winning, grow p.
  if (b1_.Contains(x)) {
    const uint64_t delta =
        std::max<uint64_t>(1, b2_.size() / std::max<size_t>(b1_.size(), 1));
    p_ = std::min(capacity_, p_ + delta);
    Replace(x, /*in_b2=*/false, now);
    b1_.Remove(x);
    t2_.PushMru(x);
    PromoteUnit(x, now);
    return;
  }

  // Case III: ghost hit in B2 — frequency is winning, shrink p.
  if (b2_.Contains(x)) {
    const uint64_t delta =
        std::max<uint64_t>(1, b1_.size() / std::max<size_t>(b2_.size(), 1));
    p_ = p_ > delta ? p_ - delta : 0;
    Replace(x, /*in_b2=*/true, now);
    b2_.Remove(x);
    t2_.PushMru(x);
    PromoteUnit(x, now);
    return;
  }

  // Case IV: full miss — admit immediately (lenient promotion).
  const uint64_t l1 = t1_.size() + b1_.size();
  if (l1 == capacity_) {
    if (t1_.size() < capacity_) {
      b1_.PopLru();
      Replace(x, /*in_b2=*/false, now);
    } else {
      const PageId victim = t1_.PopLru();
      DemoteUnit(victim, now);
    }
  } else if (l1 < capacity_) {
    const uint64_t total = l1 + t2_.size() + b2_.size();
    if (total >= capacity_) {
      if (total == 2 * capacity_ && !b2_.empty()) b2_.PopLru();
      Replace(x, /*in_b2=*/false, now);
    }
  }
  t1_.PushMru(x);
  PromoteUnit(x, now);
}

size_t ArcPolicy::MetadataBytes() const {
  return t1_.memory_bytes() + t2_.memory_bytes() + b1_.memory_bytes() +
         b2_.memory_bytes();
}

}  // namespace hybridtier
