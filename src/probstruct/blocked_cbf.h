#ifndef HYBRIDTIER_PROBSTRUCT_BLOCKED_CBF_H_
#define HYBRIDTIER_PROBSTRUCT_BLOCKED_CBF_H_

/**
 * @file
 * Blocked counting bloom filter (paper §4.2, Fig 8).
 *
 * All k counters of a key are confined to a single 64-byte cache line
 * ("block"): one hash selects the block, k derived hashes select slots
 * within it. A lookup or update therefore touches exactly one cache line
 * and incurs at most one cache miss, at the cost of a slightly higher
 * false-positive rate than the standard CBF. With 4-bit counters each
 * block holds 128 slots; with 16-bit counters (huge-page mode), 32 slots.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "probstruct/estimator.h"
#include "probstruct/hash.h"
#include "probstruct/packed_counters.h"
#include "probstruct/sizing.h"

namespace hybridtier {

/** Cache-line-blocked counting bloom filter. */
class BlockedCountingBloomFilter : public FrequencyEstimator {
 public:
  /**
   * @param sizing total counter budget; rounded up to whole 64 B blocks.
   * @param seed   hash seed.
   */
  explicit BlockedCountingBloomFilter(const CbfSizing& sizing,
                                      uint64_t seed = 1);

  uint32_t Get(uint64_t key) const override;
  void GetEach(std::span<const uint64_t> keys,
               std::span<uint32_t> out) const override;
  uint32_t Increment(uint64_t key) override;
  uint32_t IncrementWithOld(uint64_t key, uint32_t* old_count) override;
  void CoolByHalving() override;
  void Reset() override;
  size_t memory_bytes() const override { return counters_.memory_bytes(); }
  uint32_t max_count() const override { return counters_.max_value(); }
  void AppendTouchedLines(uint64_t key,
                          std::vector<uint64_t>* lines) const override;
  const char* name() const override { return "blocked-cbf"; }

  /** Number of 64-byte blocks. */
  size_t num_blocks() const { return num_blocks_; }

  /** Counter slots per block. */
  uint32_t slots_per_block() const { return slots_per_block_; }

  /** Number of hash functions (k). */
  uint32_t num_hashes() const { return num_hashes_; }

 private:
  /** Fills block index and the k in-block slot indices for `key`. */
  void Locate(uint64_t key, uint64_t* block_out, uint32_t* slots_out) const;

  /** First counter of the block `hp` selects. */
  size_t BlockBase(const HashPair& hp) const {
    return ReduceRange(hp.h1, num_blocks_) * slots_per_block_;
  }

  /** Smallest of the k counters of the key hashed to `hp`: the estimate
   *  Get returns. Slots are read as they are derived. */
  uint32_t MinCount(const HashPair& hp) const;

  PackedCounterArray counters_;
  size_t num_blocks_;
  uint32_t slots_per_block_;
  /** 64 - log2(slots_per_block_): `h >> slot_shift_` is
   *  `ReduceRange(h, slots_per_block_)` for the power-of-two block. */
  uint32_t slot_shift_;
  uint32_t num_hashes_;
  uint64_t seed_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_PROBSTRUCT_BLOCKED_CBF_H_
