#ifndef DIVA_ANON_KMEMBER_H_
#define DIVA_ANON_KMEMBER_H_

#include <cstdint>
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
/// work is still O(N^2/k) in the worst case; the kernel makes each
/// candidate cheap and lets most grow scans stop early.
///
/// - Seed step: the first maximum of DistanceMetric::Distance from the
///   previous seed. Per seed, the pool tabulates DistanceMetric::Term
///   for every code of each QI column, then sums a candidate's terms in
///   the metric's column order, so every distance is the same double.
///   It reads the pool's int32 codes: extracting them from the packed
///   words (a runtime j / lanes, j % lanes per term) made k-member ~2x
///   slower.
/// - Grow step: the ★ increase (size+1)*(div+d) - size*div is strictly
///   increasing in d, the number of still-shared ("live") QI columns on
///   which the candidate differs from the cluster's common value. So the
///   scan compares the integer d over the live columns only, and the
///   first minimum of d is the first minimum of the increase. d comes
///   from the pool's packed words, a few SWAR steps per 64-bit word (see
///   KMemberPool::Divergence); std::popcount would compile to a libgcc
///   call without -mpopcnt and measured no faster than per-column
///   compares.
/// - Early exit: an exact grow scan stops at the first d == 0. No later
///   candidate can be strictly cheaper, and a full scan would keep this
///   first one.
/// - Resume: adding a d == 0 candidate leaves the cluster's common()
///   unchanged, and taking pool entry i moves only the last entry into
///   slot i. So the cluster's next exact scan starts at i, carrying the
///   first best (d, index) of entries [0, i); strict < keeps the same
///   first minimum. A d > 0 pick, a sampled scan or a new cluster starts
///   the next scan at 0.
///
/// Tie-break invariant: both scans keep the first best candidate in pool
/// index order (strict > and <). The pool removes a taken row by moving
/// its last entry into the hole, as the unpacked pool did. So the
/// clusters are byte-identical to the plain scan. Every scan runs on the
/// calling thread, so they are the same at every thread width. A 23k-row
/// run makes ~23k scans. A fork-join per grow scan would cost more than
/// the cheap kernel saves, and chunking would defeat the early exit. A
/// chunked seed scan measured no faster at width 4.
///
/// With AnonymizerOptions::sample_size > 0 each greedy step scans
/// `sample_size` random pool indices instead. Every draw is still made
/// (no early exit), so the RNG sequence does not depend on the data.
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
