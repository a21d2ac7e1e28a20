#ifndef HYBRIDTIER_TESTS_REFERENCE_LRU_CACHE_H_
#define HYBRIDTIER_TESTS_REFERENCE_LRU_CACHE_H_

/**
 * @file
 * Slow, obviously-correct reference for `Cache`: a write-allocate,
 * true-LRU, set-associative cache written from the documented contract
 * alone. Line `a` maps to set `a % sets` with tag `a / sets`; each set is
 * a list of resident tags, most recent first, holding at most `ways`
 * of them. A hit moves the tag to the front; a miss inserts it at the
 * front and, when the set is full, drops the one at the back.
 */

#include <algorithm>
#include <cstdint>
#include <list>
#include <vector>

namespace hybridtier::reference {

/** True-LRU cache over per-set lists, with per-owner hit/miss counts. */
class LruCache {
 public:
  LruCache(uint64_t sets, uint32_t ways) : ways_(ways), sets_(sets) {}

  /** Accesses line `line_addr` for owner index `owner`; true on hit. */
  bool Access(uint64_t line_addr, size_t owner) {
    std::list<uint64_t>& set = sets_[line_addr % sets_.size()];
    const uint64_t tag = line_addr / sets_.size();
    const auto it = std::find(set.begin(), set.end(), tag);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == ways_) {
      set.pop_back();
    }
    set.push_front(tag);
    ++(hit ? hits_ : misses_)[owner];
    return hit;
  }

  /** Empties every set; counts are kept. */
  void Flush() {
    for (std::list<uint64_t>& set : sets_) set.clear();
  }

  uint64_t hits(size_t owner) const { return hits_[owner]; }
  uint64_t misses(size_t owner) const { return misses_[owner]; }

 private:
  size_t ways_;
  std::vector<std::list<uint64_t>> sets_;
  uint64_t hits_[2] = {0, 0};
  uint64_t misses_[2] = {0, 0};
};

}  // namespace hybridtier::reference

#endif  // HYBRIDTIER_TESTS_REFERENCE_LRU_CACHE_H_
