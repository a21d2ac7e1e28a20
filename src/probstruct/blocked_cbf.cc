#include "probstruct/blocked_cbf.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/units.h"

namespace hybridtier {

namespace {
constexpr uint32_t kMaxHashes = 16;
}  // namespace

BlockedCountingBloomFilter::BlockedCountingBloomFilter(
    const CbfSizing& sizing, uint64_t seed)
    : counters_(
          // Round the counter budget up to whole 64-byte blocks.
          [&] {
            const uint32_t slots =
                static_cast<uint32_t>(kCacheLineSize * 8 /
                                      sizing.counter_bits);
            const size_t blocks =
                (sizing.num_counters + slots - 1) / slots;
            return std::max<size_t>(blocks, 1) * slots;
          }(),
          sizing.counter_bits),
      num_hashes_(sizing.num_hashes),
      seed_(seed) {
  slots_per_block_ =
      static_cast<uint32_t>(kCacheLineSize * 8 / sizing.counter_bits);
  num_blocks_ = counters_.size() / slots_per_block_;
  HT_ASSERT(num_hashes_ >= 1 && num_hashes_ <= kMaxHashes,
            "hash count must be in [1,16], got ", num_hashes_);
  HT_ASSERT(num_hashes_ <= slots_per_block_,
            "more hashes than slots per block");
  HT_ASSERT(std::has_single_bit(slots_per_block_),
            "slots per block must be a power of two, got ", slots_per_block_);
  slot_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(slots_per_block_));
}

void BlockedCountingBloomFilter::Locate(uint64_t key, uint64_t* block_out,
                                        uint32_t* slots_out) const {
  const HashPair hp = HashKey(key, seed_);
  // The block comes from h1; in-block slots come from the derived stream.
  *block_out = ReduceRange(hp.h1, num_blocks_);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    // Slot collisions within a block are permitted by design (paper §4.2:
    // "the k counters can be mapped to any counters within the line").
    slots_out[i] = static_cast<uint32_t>(
        ReduceRange(DerivedHash(hp, i + 1), slots_per_block_));
  }
}

inline uint32_t BlockedCountingBloomFilter::MinCount(
    const HashPair& hp) const {
  const size_t base = BlockBase(hp);
  uint32_t min_count = counters_.max_value();
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const size_t slot = ReduceRange(DerivedHash(hp, i + 1), slots_per_block_);
    min_count = std::min(min_count, counters_.Get(base + slot));
  }
  return min_count;
}

uint32_t BlockedCountingBloomFilter::Get(uint64_t key) const {
  return MinCount(HashKey(key, seed_));
}

void BlockedCountingBloomFilter::GetEach(std::span<const uint64_t> keys,
                                         std::span<uint32_t> out) const {
  HT_ASSERT(out.size() == keys.size(), "GetEach output holds ", out.size(),
            " counts for ", keys.size(), " keys");
  // A filter larger than the host caches misses on nearly every probe,
  // and the probes of a batch are independent: hash kLookahead keys
  // ahead and prefetch their blocks, so those misses overlap. Blocks
  // start on host cache lines, so one prefetch covers a block.
  constexpr size_t kLookahead = 8;
  struct Staged {
    HashPair hp;
    size_t base;
  };
  Staged ahead[kLookahead];
  const auto stage = [&](size_t k) {
    Staged& s = ahead[k % kLookahead];
    s.hp = HashKey(keys[k], seed_);
    s.base = BlockBase(s.hp);
    counters_.Prefetch(s.base);
  };
  const size_t n = keys.size();
  for (size_t k = 0; k < std::min(n, kLookahead); ++k) stage(k);
  for (size_t i = 0; i < n; ++i) {
    const Staged s = ahead[i % kLookahead];
    if (i + kLookahead < n) stage(i + kLookahead);
    // In-block slots by shift: ReduceRange over the power-of-two block.
    uint32_t min_count = counters_.max_value();
    for (uint32_t j = 1; j <= num_hashes_; ++j) {
      const size_t slot = DerivedHash(s.hp, j) >> slot_shift_;
      min_count = std::min(min_count, counters_.Get(s.base + slot));
    }
    out[i] = min_count;
  }
}

uint32_t BlockedCountingBloomFilter::Increment(uint64_t key) {
  uint32_t old_count;
  return IncrementWithOld(key, &old_count);
}

uint32_t BlockedCountingBloomFilter::IncrementWithOld(uint64_t key,
                                                      uint32_t* old_count) {
  uint64_t block;
  uint32_t slots[kMaxHashes];
  Locate(key, &block, slots);
  const size_t base = block * slots_per_block_;
  uint32_t min_count = counters_.max_value();
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    min_count = std::min(min_count, counters_.Get(base + slots[i]));
  }
  // The pre-update estimate is the same min() Get would have returned.
  *old_count = min_count;
  if (min_count >= counters_.max_value()) return min_count;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    if (counters_.Get(base + slots[i]) == min_count) {
      counters_.Set(base + slots[i], min_count + 1);
    }
  }
  return min_count + 1;
}

void BlockedCountingBloomFilter::CoolByHalving() { counters_.HalveAll(); }

void BlockedCountingBloomFilter::Reset() { counters_.Reset(); }

void BlockedCountingBloomFilter::AppendTouchedLines(
    uint64_t key, std::vector<uint64_t>* lines) const {
  uint64_t block;
  uint32_t slots[kMaxHashes];
  Locate(key, &block, slots);
  // The defining property of the blocked CBF: exactly one line per update.
  lines->push_back(block);
}

}  // namespace hybridtier
