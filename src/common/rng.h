#ifndef DIVA_COMMON_RNG_H_
#define DIVA_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace diva {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via splitmix64).
///
/// Every randomized component in the library takes an explicit seed so
/// experiments are exactly reproducible. Not cryptographically secure.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Standard normal via Box-Muller (mean 0, stddev 1).
  double Gaussian();

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples from a Zipfian distribution over {0, ..., n-1} with skew
/// exponent s (frequency of rank r proportional to 1/(r+1)^s).
///
/// Precomputes the inverse CDF table once; sampling is O(log n) via
/// binary search. Suitable for the dictionary-domain sizes used in the
/// workload generators (up to ~1e6).
class ZipfSampler {
 public:
  /// `n` must be >= 1; `s` >= 0 (s = 0 degenerates to uniform).
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng* rng) const;

  size_t n() const { return n_; }
  double s() const { return s_; }

 private:
  size_t n_;
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i), cdf_.back() == 1.
};

}  // namespace diva

#endif  // DIVA_COMMON_RNG_H_
