#include "anon/kmember.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

KMemberPool::KMemberPool(const Relation& relation,
                         const DistanceMetric& metric,
                         std::span<const RowId> rows)
    : metric_(&metric),
      qi_(relation.schema().qi_indices()),
      rows_(rows.begin(), rows.end()) {
  codes_.reserve(rows_.size() * qi_.size());
  for (RowId row : rows_) {
    for (size_t col : qi_) codes_.push_back(relation.At(row, col));
  }
  size_t table_size = 0;
  for (size_t col : qi_) {
    domain_.push_back(static_cast<ValueCode>(relation.dictionary(col).size()));
    table_size += static_cast<size_t>(domain_.back()) + 1;
  }

  // A lane holds code + 1 <= the largest domain, and at least 5 bits, so
  // the count of a word's <= 12 lanes fits in one lane.
  size_t max_domain = 0;
  for (ValueCode domain : domain_) {
    max_domain = std::max(max_domain, static_cast<size_t>(domain));
  }
  lane_bits_ = std::max<size_t>(5, std::bit_width(max_domain));
  lanes_ = 64 / lane_bits_;
  words_per_row_ = (qi_.size() + lanes_ - 1) / lanes_;
  lane_mask_ = (uint64_t{1} << lane_bits_) - 1;
  for (size_t lane = 0; lane < lanes_; ++lane) {
    lane_ones_ |= uint64_t{1} << (lane * lane_bits_);
  }
  low_bits_ = lane_ones_ * (lane_mask_ >> 1);
  high_bits_ = lane_ones_ << (lane_bits_ - 1);
  top_lane_shift_ = (lanes_ - 1) * lane_bits_;
  common_words_.resize(words_per_row_);
  live_masks_.resize(words_per_row_);
  words_.assign(rows_.size() * words_per_row_, 0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    Pack(codes(i), words_.data() + i * words_per_row_);
  }
  term_table_.resize(table_size);
  double* slice = term_table_.data();
  for (ValueCode domain : domain_) {
    anchor_terms_.push_back(slice + 1);  // slot 0 is kSuppressed's term
    slice += static_cast<size_t>(domain) + 1;
  }
}

RowId KMemberPool::TakeAt(size_t i) {
  // Always-on: an out-of-range take would read and swap stale memory in
  // release builds.
  DIVA_CHECK_MSG(i < rows_.size(), "KMemberPool::TakeAt index out of range");
  RowId row = rows_[i];
  size_t last = rows_.size() - 1;
  rows_[i] = rows_[last];
  rows_.pop_back();
  size_t width = qi_.size();
  std::copy_n(codes_.begin() + last * width, width,
              codes_.begin() + i * width);
  codes_.resize(last * width);
  std::copy_n(words_.begin() + last * words_per_row_, words_per_row_,
              words_.begin() + i * words_per_row_);
  words_.resize(last * words_per_row_);
  return row;
}

void KMemberPool::SetAnchor(std::span<const ValueCode> anchor) {
  for (size_t j = 0; j < qi_.size(); ++j) {
    for (ValueCode code = kSuppressed; code < domain_[j]; ++code) {
      anchor_terms_[j][code] = metric_->Term(qi_[j], anchor[j], code);
    }
  }
}

void KMemberPool::Pack(std::span<const ValueCode> codes,
                       uint64_t* words) const {
  for (size_t j = 0; j < qi_.size(); ++j) {
    words[j / lanes_] |= static_cast<uint64_t>(codes[j] + 1)
                         << (j % lanes_ * lane_bits_);
  }
}

void KMemberPool::SetCommon(std::span<const ValueCode> common) {
  std::fill(common_words_.begin(), common_words_.end(), 0);
  std::fill(live_masks_.begin(), live_masks_.end(), 0);
  Pack(common, common_words_.data());
  for (size_t j = 0; j < qi_.size(); ++j) {
    if (common[j] == kSuppressed) continue;
    live_masks_[j / lanes_] |= lane_mask_ << (j % lanes_ * lane_bits_);
  }
}

size_t KMemberPool::FurthestFromAnchor() const {
  const size_t n = rows_.size();
  const size_t width = qi_.size();
  const double* const* terms = anchor_terms_.data();
  const ValueCode* row = codes_.data();
  double best_distance = -1.0;
  size_t best_index = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4, row += 4 * width) {
    double d0 = 0.0;
    double d1 = 0.0;
    double d2 = 0.0;
    double d3 = 0.0;
    for (size_t j = 0; j < width; ++j) {
      const double* term = terms[j];
      d0 += term[row[j]];
      d1 += term[row[width + j]];
      d2 += term[row[2 * width + j]];
      d3 += term[row[3 * width + j]];
    }
    if (d0 > best_distance) {
      best_distance = d0;
      best_index = i;
    }
    if (d1 > best_distance) {
      best_distance = d1;
      best_index = i + 1;
    }
    if (d2 > best_distance) {
      best_distance = d2;
      best_index = i + 2;
    }
    if (d3 > best_distance) {
      best_distance = d3;
      best_index = i + 3;
    }
  }
  for (; i < n; ++i, row += width) {
    double d = 0.0;
    for (size_t j = 0; j < width; ++j) d += terms[j][row[j]];
    if (d > best_distance) {
      best_distance = d;
      best_index = i;
    }
  }
  return best_index;
}

size_t KMemberPool::LeastDivergent(GrowResume* resume) const {
  const size_t n = rows_.size();
  const size_t words = words_per_row_;
  const uint64_t* common = common_words_.data();
  const uint64_t* live = live_masks_.data();
  const uint64_t low_bits = low_bits_;
  const uint64_t high_bits = high_bits_;
  const uint64_t lane_ones = lane_ones_;
  const uint64_t lane_mask = lane_mask_;
  const size_t low_shift = lane_bits_ - 1;
  const size_t top_shift = top_lane_shift_;
  DIVA_DCHECK(resume->best_divergence > 0);
  size_t best_divergence = resume->best_divergence;
  size_t best_index = resume->best_index;
  size_t i = resume->start;
  *resume = GrowResume{};
  const uint64_t* row = words_.data() + i * words;
  for (; i < n && best_divergence > 1; ++i, row += words) {
    size_t d = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t x = (row[w] ^ common[w]) & live[w];
      uint64_t y = ((((x & low_bits) + low_bits) | x) & high_bits) >> low_shift;
      d += ((y * lane_ones) >> top_shift) & lane_mask;
    }
    if (d < best_divergence) {
      if (d == 0) {  // nothing later is strictly cheaper
        *resume = {i, best_divergence, best_index};
        return i;
      }
      best_divergence = d;
      best_index = i;
    }
  }
  // Past here the best is d == 1 (or no entry is left), so only an exact
  // match is strictly cheaper, and d == 0 iff no word has a differing
  // live lane.
  for (; i < n; ++i, row += words) {
    uint64_t differs = 0;
    for (size_t w = 0; w < words; ++w) {
      differs |= (row[w] ^ common[w]) & live[w];
    }
    if (differs == 0) {
      *resume = {i, best_divergence, best_index};
      return i;
    }
  }
  return best_index;
}

namespace {

/// A greedy step scans every pool index, or `sample_size` random ones
/// when the pool is larger than that.
bool Sampled(const KMemberPool& pool, size_t sample_size) {
  return sample_size > 0 && pool.size() > sample_size;
}

/// Seed step: the first scanned index furthest from the pool's anchor.
size_t FurthestIndex(const KMemberPool& pool, size_t sample_size, Rng* rng) {
  if (!Sampled(pool, sample_size)) return pool.FurthestFromAnchor();
  double best_distance = -1.0;
  size_t best_index = 0;
  for (size_t s = 0; s < sample_size; ++s) {
    size_t i = static_cast<size_t>(rng->NextBounded(pool.size()));
    double d = pool.DistanceToAnchor(i);
    if (d > best_distance) {
      best_distance = d;
      best_index = i;
    }
  }
  return best_index;
}

/// Grow step: the first scanned index with the least divergence from the
/// cluster's live columns, i.e. the least ★ increase. An exact scan
/// resumes where the cluster's previous one stopped (see
/// KMemberPool::LeastDivergent); a sampled scan resets `resume`.
size_t CheapestIndex(KMemberPool& pool, const ClusterCostTracker& tracker,
                     size_t sample_size, Rng* rng,
                     KMemberPool::GrowResume* resume) {
  pool.SetCommon(tracker.common());
  if (!Sampled(pool, sample_size)) return pool.LeastDivergent(resume);
  *resume = KMemberPool::GrowResume{};
  size_t best_divergence = std::numeric_limits<size_t>::max();
  size_t best_index = 0;
  for (size_t s = 0; s < sample_size; ++s) {
    size_t i = static_cast<size_t>(rng->NextBounded(pool.size()));
    size_t d = pool.Divergence(i);
    if (d < best_divergence) {
      best_divergence = d;
      best_index = i;
    }
  }
  return best_index;
}

}  // namespace

Result<Clustering> KMemberAnonymizer::BuildClusters(
    const Relation& relation, std::span<const RowId> rows, size_t k) {
  DIVA_TRACE_SPAN("baseline/kmember");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("kmember.build"));
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (rows.empty()) return Clustering{};
  if (rows.size() < k) {
    return Status::Infeasible(
        "cannot form a k-anonymous group from " +
        std::to_string(rows.size()) + " < k = " + std::to_string(k) +
        " tuples");
  }

  DistanceMetric metric(relation);
  Rng rng(options_.seed);
  KMemberPool pool(relation, metric, rows);
  Clustering clusters;
  std::vector<ClusterCostTracker> trackers;

  // Seed anchor: a random record (the paper's k-member starts from a
  // randomly chosen record and then picks the furthest one each round).
  pool.SetAnchor(
      pool.codes(static_cast<size_t>(rng.NextBounded(pool.size()))));

  while (pool.size() >= k) {
    // One deadline poll per greedy cluster: a half-built clustering is
    // useless, so the caller (RunDiva) discards it and falls back to the
    // single-pass Mondrian baseline.
    if (options_.cancel.Cancelled()) {
      return DeadlineExceededStatus("k-member clustering");
    }
    size_t seed_index = FurthestIndex(pool, options_.sample_size, &rng);
    pool.SetAnchor(pool.codes(seed_index));  // the next seed's anchor
    RowId seed = pool.TakeAt(seed_index);

    ClusterCostTracker tracker(relation);
    tracker.Reset(seed);
    Cluster cluster = {seed};
    KMemberPool::GrowResume resume;

    while (cluster.size() < k) {
      RowId added = pool.TakeAt(
          CheapestIndex(pool, tracker, options_.sample_size, &rng, &resume));
      tracker.Add(added);
      cluster.push_back(added);
    }
    clusters.push_back(std::move(cluster));
    trackers.push_back(std::move(tracker));
  }

  // Distribute the (< k) leftovers to their cheapest clusters.
  while (!pool.empty()) {
    RowId row = pool.TakeAt(pool.size() - 1);
    size_t cheapest = std::numeric_limits<size_t>::max();
    size_t target = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      size_t cost = trackers[c].CostIncrease(row);
      if (cost < cheapest) {
        cheapest = cost;
        target = c;
      }
    }
    trackers[target].Add(row);
    clusters[target].push_back(row);
  }

  DIVA_COUNTER_ADD("kmember.clusters", clusters.size());
  return clusters;
}

}  // namespace diva
