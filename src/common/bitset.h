#ifndef DIVA_COMMON_BITSET_H_
#define DIVA_COMMON_BITSET_H_

/// Dense bitset kernels for the search hot paths (see docs/development.md,
/// "Performance playbook"). A Bitset packs bits into 64-bit words and
/// exposes word-batched And/AndNot/Or plus popcount-based counting, so
/// membership-heavy inner loops (the coloring engine's target bitmaps and
/// claimed-row tracking) cost one popcount per word instead of one probe
/// per row. Kernels above kParallelWordCutoff words run on the audited
/// parallel layer (ParallelFor / ParallelReduce) with chunk boundaries
/// that are a pure function of the word count — bit-identical results at
/// every thread width, like everything else built on common/parallel.h.
///
/// Invariant: bits at positions >= size() in the last word are always
/// zero, so Count() and the binary kernels never need a tail mask.

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
    words_.assign(NumWords(bits), 0);
  }

  size_t size() const { return bits_; }
  size_t num_words() const { return words_.size(); }
  bool empty() const { return bits_ == 0; }

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

  /// Zeroes every bit (size unchanged).
  void Clear();

  /// Number of set bits. Word-batched popcount; ParallelReduce above the
  /// cutoff.
  size_t Count() const;

  /// this &= other. Sizes must match.
  void And(const Bitset& other);

  /// this &= ~other (set difference). Sizes must match.
  void AndNot(const Bitset& other);

  /// this |= other. Sizes must match.
  void Or(const Bitset& other);

  /// popcount(a & b) without materializing the intersection — the
  /// coloring engine's per-constraint contribution kernel. Sizes must
  /// match.
  static size_t IntersectionCount(const Bitset& a, const Bitset& b);

  /// True when a & b has any set bit (early exit on the first hit).
  bool Intersects(const Bitset& other) const;

  /// True when every set bit of *this is set in `other` (word-wise
  /// this & ~other == 0, early exit).
  bool IsSubsetOf(const Bitset& other) const;

  bool None() const;
  bool Any() const { return !None(); }

  /// Calls fn(i) for every set bit i in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        size_t bit = static_cast<size_t>(__builtin_ctzll(word));
        fn((w << 6) + bit);
        word &= word - 1;
      }
    }
  }

  /// Raw word storage (little-endian bit order within a word).
  const uint64_t* words() const { return words_.data(); }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

  /// Kernels at or above this many words fan out over the parallel
  /// layer; below it the per-chunk dispatch costs more than it saves.
  /// Both paths are bit-identical, so the cutoff only decides speed.
  static constexpr size_t kParallelWordCutoff = size_t{1} << 16;

 private:
  static size_t NumWords(size_t bits) { return (bits + 63) >> 6; }

  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace diva

#endif  // DIVA_COMMON_BITSET_H_
