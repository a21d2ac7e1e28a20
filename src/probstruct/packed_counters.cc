#include "probstruct/packed_counters.h"

#include <bit>

#include "common/logging.h"

namespace hybridtier {

namespace {

/** Per-word mask that clears the bit shifted into each lane by >> 1. */
uint64_t HalvingMask(uint32_t bits) {
  switch (bits) {
    case 4:
      return 0x7777777777777777ULL;
    case 8:
      return 0x7f7f7f7f7f7f7f7fULL;
    case 16:
      return 0x7fff7fff7fff7fffULL;
    default:
      HT_PANIC("unsupported counter width ", bits);
  }
}

}  // namespace

PackedCounterArray::PackedCounterArray(size_t count, uint32_t bits)
    : count_(count), bits_(bits) {
  HT_ASSERT(bits == 4 || bits == 8 || bits == 16,
            "counter width must be 4, 8, or 16, got ", bits);
  HT_ASSERT(count > 0, "counter array must not be empty");
  max_value_ = (1u << bits_) - 1;
  const uint32_t per_word = 64 / bits_;
  bits_shift_ = static_cast<uint32_t>(std::countr_zero(bits_));
  word_shift_ = static_cast<uint32_t>(std::countr_zero(per_word));
  lane_mask_ = per_word - 1;
  words_.assign((count + per_word - 1) / per_word, 0);
}

uint32_t PackedCounterArray::SaturatingIncrement(size_t i) {
  const uint32_t current = Get(i);
  if (current >= max_value_) return current;
  Set(i, current + 1);
  return current + 1;
}

void PackedCounterArray::HalveAll() {
  const uint64_t mask = HalvingMask(bits_);
  for (auto& word : words_) word = (word >> 1) & mask;
}

void PackedCounterArray::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

size_t PackedCounterArray::CountNonZero() const {
  size_t nonzero = 0;
  for (size_t i = 0; i < count_; ++i) nonzero += Get(i) != 0;
  return nonzero;
}

}  // namespace hybridtier
