#ifndef HYBRIDTIER_PROBSTRUCT_PACKED_COUNTERS_H_
#define HYBRIDTIER_PROBSTRUCT_PACKED_COUNTERS_H_

/**
 * @file
 * Bit-packed saturating counter array.
 *
 * HybridTier caps access counters at 4 bits for regular pages (max count
 * 15 — pages at the cap all belong in the fast tier, paper §3.2) and at
 * 16 bits for huge pages (§4.4). Counters are packed into 64-bit words;
 * the periodic "cooling" halving is a masked parallel shift over whole
 * words rather than a per-counter loop.
 *
 * Both the width and the counters per word (16, 8 or 4) are powers of
 * two, so counter `i` lives in word `i >> word_shift` at bit offset
 * `(i & lane_mask) << bits_shift`: Get and Set index with a shift and a
 * mask, never a division, and are inlined into the estimators' probes.
 *
 * The words start on a 64 B boundary, so every aligned run of 64 B of
 * counters (a blocked filter's block) is one host cache line.
 */

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/logging.h"
#include "common/units.h"

namespace hybridtier {

/** Allocator of 64 B-aligned storage (one host cache line). */
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineSize}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineSize});
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/** Dense array of `count` saturating counters of 4, 8, or 16 bits each. */
class PackedCounterArray {
 public:
  /**
   * @param count number of counters.
   * @param bits  counter width; must be 4, 8, or 16.
   */
  PackedCounterArray(size_t count, uint32_t bits);

  /** Returns counter `i`. */
  uint32_t Get(size_t i) const {
    HT_ASSERT(i < count_, "counter index ", i, " out of range ", count_);
    return static_cast<uint32_t>((words_[i >> word_shift_] >> LaneShift(i)) &
                                 max_value_);
  }

  /** Sets counter `i` to `value` (clamped to the counter maximum). */
  void Set(size_t i, uint32_t value) {
    HT_ASSERT(i < count_, "counter index ", i, " out of range ", count_);
    if (value > max_value_) value = max_value_;
    uint64_t& word = words_[i >> word_shift_];
    const uint32_t shift = LaneShift(i);
    word &= ~(static_cast<uint64_t>(max_value_) << shift);
    word |= static_cast<uint64_t>(value) << shift;
  }

  /** Hints the host to fetch the word holding counter `i` ahead of a
   *  Get. `i` must be below size(); unchecked, as a hint changes no
   *  state. */
  void Prefetch(size_t i) const {
    __builtin_prefetch(words_.data() + (i >> word_shift_));
  }

  /** Increments counter `i`, saturating at max_value(); returns new value. */
  uint32_t SaturatingIncrement(size_t i);

  /** Halves every counter in the array (EMA cooling, decay factor 2). */
  void HalveAll();

  /** Sets every counter to zero. */
  void Reset();

  /** Number of counters. */
  size_t size() const { return count_; }

  /** Counter width in bits. */
  uint32_t bits() const { return bits_; }

  /** Largest representable counter value. */
  uint32_t max_value() const { return max_value_; }

  /** Bytes of backing storage. */
  size_t memory_bytes() const { return words_.size() * sizeof(uint64_t); }

  /** Number of counters with a nonzero value (O(n), for diagnostics). */
  size_t CountNonZero() const;

  /**
   * Index of the 64-byte cache line that counter `i` lives in, relative
   * to the start of the array. Used for metadata cache-traffic modeling.
   */
  uint64_t CacheLineOf(size_t i) const {
    return (static_cast<uint64_t>(i) * bits_) / (kCacheLineSize * 8);
  }

 private:
  /** Bit offset of counter `i` within its word. */
  uint32_t LaneShift(size_t i) const {
    return static_cast<uint32_t>(i & lane_mask_) << bits_shift_;
  }

  size_t count_;
  uint32_t bits_;
  uint32_t max_value_;
  uint32_t bits_shift_;  //!< log2(bits_).
  uint32_t word_shift_;  //!< log2(counters per word).
  size_t lane_mask_;     //!< Counters per word, minus one.
  std::vector<uint64_t, CacheLineAllocator<uint64_t>> words_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_PROBSTRUCT_PACKED_COUNTERS_H_
