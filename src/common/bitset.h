#ifndef DIVA_COMMON_BITSET_H_
#define DIVA_COMMON_BITSET_H_

/// Dense row-membership bitset: the coloring engine's claimed and
/// sacrificed rows, the pipeline's covered/targeted row sets and the
/// constraint generator's used-value marks. Bits are packed into 64-bit
/// words, so Count() costs one popcount per word.
///
/// Invariant: bits at positions >= size() in the last word are always
/// zero, so Count() never needs a tail mask.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace diva {

class Bitset {
 public:
  Bitset() = default;

  /// A bitset of `bits` zero bits.
  explicit Bitset(size_t bits) { Resize(bits); }

  /// Resizes to `bits` bits, zeroing everything (contents do not
  /// survive a resize; the coloring engine sizes its bitsets once).
  void Resize(size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) >> 6, 0);
  }

  size_t size() const { return bits_; }

  bool Test(size_t i) const {
    DIVA_DCHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) {
    DIVA_DCHECK(i < bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(size_t i) {
    DIVA_DCHECK(i < bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Number of set bits.
  size_t Count() const {
    size_t count = 0;
    for (uint64_t word : words_) {
      count += static_cast<size_t>(__builtin_popcountll(word));
    }
    return count;
  }

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace diva

#endif  // DIVA_COMMON_BITSET_H_
