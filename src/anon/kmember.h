#ifndef DIVA_ANON_KMEMBER_H_
#define DIVA_ANON_KMEMBER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "anon/anonymizer.h"
#include "anon/distance.h"

namespace diva {

/// Greedy k-member clustering (Byun, Kamra, Bertino, Li — DASFAA 2007),
/// adapted to the suppression cost model: each cluster is seeded with the
/// record furthest from the previous cluster's seed, then grown by
/// repeatedly adding the record whose inclusion raises the cluster's
/// ★ count the least. Leftover records (< k remaining) join the cluster
/// they are cheapest for.
///
/// Both greedy scans read a KMemberPool: the not-yet-clustered rows'
/// QI codes laid out densely in pool order, so a scan streams one small
/// array instead of gathering cells from the row-major relation. The
/// work is still O(N^2/k) in the worst case; the kernels make each
/// candidate cheap and let most grow scans stop early.
///
/// - Seed step: the first maximum of DistanceMetric::Distance from the
///   previous seed (KMemberPool::FurthestFromAnchor).
/// - Grow step: the first minimum of the ★ increase
///   (size+1)*(div+d) - size*div. It is strictly increasing in d, the
///   number of still-shared ("live") QI columns on which the candidate
///   differs from the cluster's common value, so the scan compares the
///   integer d (KMemberPool::LeastDivergent).
///
/// Exact scans run in the pool's own loops, which keep every constant in
/// locals and never touch the Rng. The shared loop they replaced picked
/// each index through a sampled-or-exact branch and cost ~8 ns a row in
/// both scans; a Pop-Syn publish makes ~27.5M seed-row and ~48.5M
/// grow-row visits.
///
/// Tie-break invariant: both scans keep the first best candidate in pool
/// index order (strict > and <). The pool removes a taken row by moving
/// its last entry into the hole, as the unpacked pool did. So the
/// clusters are byte-identical to the plain one-row scan. Every scan runs
/// on the calling thread, so they are the same at every thread width. A
/// 23k-row run makes ~23k scans. A fork-join per grow scan would cost
/// more than the cheap kernel saves, and chunking would defeat the early
/// exit. A chunked seed scan measured no faster at width 4.
///
/// With AnonymizerOptions::sample_size > 0 each greedy step scans
/// `sample_size` random pool indices instead, one DistanceToAnchor or
/// Divergence per draw. Every draw is still made (no early exit), so the
/// RNG sequence does not depend on the data.
class KMemberAnonymizer final : public Anonymizer {
 public:
  explicit KMemberAnonymizer(const AnonymizerOptions& options)
      : options_(options) {}

  std::string name() const override { return "k-member"; }

  [[nodiscard]] Result<Clustering> BuildClusters(const Relation& relation,
                                   std::span<const RowId> rows,
                                   size_t k) override;

 private:
  AnonymizerOptions options_;
};

/// The rows k-member has not clustered yet, with their QI codes stored
/// twice in pool order (QI positions in schema order, as
/// ClusterCostTracker::common()): |QI| int32 codes per row for the seed
/// scan, and the same codes packed into 64-bit words for the grow scan.
/// A lane holds code + 1, so kSuppressed is lane value 0 and never equals
/// a live common value. Lanes are b = max(5, bit_width(largest QI
/// dictionary)) bits wide, 64 / b of them per word: at most 12 lanes, so
/// a word's count of differing lanes fits in one lane. Removal is
/// O(|QI|): the last entry moves into the removed slot. `metric` must
/// outlive the pool.
///
/// The seed scan reads the int32 codes: extracting them from the packed
/// words (a runtime j / lanes, j % lanes per term) made k-member ~2x
/// slower. The grow scan counts differing lanes with a few SWAR steps per
/// word (see Divergence); std::popcount compiles to a libgcc call without
/// -mpopcnt and measured no faster than per-column compares.
class KMemberPool {
 public:
  KMemberPool(const Relation& relation, const DistanceMetric& metric,
              std::span<const RowId> rows);
  KMemberPool(const KMemberPool&) = delete;
  KMemberPool& operator=(const KMemberPool&) = delete;

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  RowId row(size_t i) const { return rows_[i]; }

  /// Entry i's QI codes.
  std::span<const ValueCode> codes(size_t i) const {
    return {codes_.data() + i * qi_.size(), qi_.size()};
  }

  /// Removes entry i and returns its row.
  RowId TakeAt(size_t i);

  /// Makes the row with QI codes `anchor` the one DistanceToAnchor
  /// measures from: tabulates DistanceMetric::Term against the anchor
  /// for every code of every QI column (O(sum of QI domain sizes)).
  void SetAnchor(std::span<const ValueCode> anchor);

  /// DistanceMetric::Distance between the anchor and entry i,
  /// bit-for-bit: the same terms, added in the same column order.
  double DistanceToAnchor(size_t i) const {
    const ValueCode* codes = codes_.data() + i * qi_.size();
    double total = 0.0;
    for (size_t j = 0; j < qi_.size(); ++j) {
      total += anchor_terms_[j][codes[j]];
    }
    return total;
  }

  /// Makes `common` (a ClusterCostTracker's common()) the row Divergence
  /// compares against: packs its codes and the lanes of its live (not
  /// kSuppressed) positions, O(|QI|).
  void SetCommon(std::span<const ValueCode> common);

  /// Number of live positions of the common row on which entry i
  /// differs from it. Per word, x's lane is nonzero iff it differs on a
  /// live position; y holds a 1 in the low bit of each nonzero lane; the
  /// multiply sums y's lanes into the top lane, and the mask drops the
  /// partial sums the multiply leaves above it.
  size_t Divergence(size_t i) const {
    const uint64_t* words = words_.data() + i * words_per_row_;
    size_t d = 0;
    for (size_t w = 0; w < words_per_row_; ++w) {
      uint64_t x = (words[w] ^ common_words_[w]) & live_masks_[w];
      uint64_t y = ((((x & low_bits_) + low_bits_) | x) & high_bits_) >>
                   (lane_bits_ - 1);
      d += ((y * lane_ones_) >> top_lane_shift_) & lane_mask_;
    }
    return d;
  }

  /// The exact seed scan: the first index with the largest
  /// DistanceToAnchor. It sums four rows per iteration, four independent
  /// chains of adds instead of one. Each row's terms are still added
  /// from 0.0 in the metric's column order, so every distance is the
  /// same double, and the four sums are compared in index order with
  /// strict >, so the first maximum wins. A tail loop takes the last
  /// size() % 4 rows one at a time.
  size_t FurthestFromAnchor() const;

  /// Where a cluster's next exact grow scan starts, and the first best
  /// (divergence, index) of the pool entries before that start.
  struct GrowResume {
    size_t start = 0;
    size_t best_divergence = std::numeric_limits<size_t>::max();
    size_t best_index = 0;
  };

  /// The exact grow scan: the first index with the least Divergence from
  /// SetCommon's row, over entries [resume->start, size()) with
  /// resume's best standing for the entries before it.
  ///
  /// - Early exit: the scan stops at the first d == 0. No later entry
  ///   can be strictly cheaper, and a full scan would keep this one.
  /// - Exact-match phase: once the best is d == 1, only an exact match
  ///   can beat it, and d == 0 iff every word's (row ^ common) & live is
  ///   0. So from there the scan tests only that: no lane count, one
  ///   AND and compare per word. It returns the index, and leaves the
  ///   resume, that the counting scan would.
  /// - Resume: on a stop at entry i, `*resume` becomes {i, the best
  ///   before i}. Adding a d == 0 entry leaves the cluster's common()
  ///   unchanged, and TakeAt(i) moves only the last entry into slot i,
  ///   so the cluster's next scan need not read [0, i) again; strict <
  ///   keeps the same first minimum. Any other outcome resets `*resume`,
  ///   so a d > 0 pick starts the next scan at 0, as does a new cluster
  ///   (a fresh GrowResume) or a sampled scan.
  ///
  /// resume->best_divergence must be > 0, as in every resume a scan
  /// leaves: it stopped at the first d == 0.
  size_t LeastDivergent(GrowResume* resume) const;

 private:
  /// ORs `codes` (one row's, in QI-position order) into `words`, packed.
  void Pack(std::span<const ValueCode> codes, uint64_t* words) const;

  const DistanceMetric* metric_;
  std::vector<size_t> qi_;         // QI columns, in schema order
  std::vector<RowId> rows_;
  std::vector<ValueCode> codes_;   // rows_.size() x qi_.size()
  // The same codes packed as code + 1 (kSuppressed is 0) in lanes of
  // lane_bits_ bits, lanes_ per word: rows_.size() x words_per_row_.
  std::vector<uint64_t> words_;
  size_t lane_bits_ = 0;
  size_t lanes_ = 0;
  size_t words_per_row_ = 0;
  uint64_t lane_mask_ = 0;  // one lane's bits
  uint64_t lane_ones_ = 0;  // the low bit of every lane
  uint64_t low_bits_ = 0;   // all but the top bit of every lane
  uint64_t high_bits_ = 0;  // the top bit of every lane
  size_t top_lane_shift_ = 0;
  std::vector<uint64_t> common_words_;  // SetCommon's row, packed
  std::vector<uint64_t> live_masks_;    // its live lanes, all ones
  std::vector<ValueCode> domain_;  // per QI position: dictionary size
  // anchor_terms_[j][code] is Term(qi_[j], anchor code, code): each
  // points one past the start of its slice of term_table_, whose first
  // slot holds kSuppressed's (-1) term.
  std::vector<double> term_table_;
  std::vector<double*> anchor_terms_;
};

}  // namespace diva

#endif  // DIVA_ANON_KMEMBER_H_
