#include "core/coloring.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>

#include "common/bitset.h"
#include "common/counters.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

const char* SelectionStrategyToString(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kBasic:
      return "Basic";
    case SelectionStrategy::kMinChoice:
      return "MinChoice";
    case SelectionStrategy::kMaxFanOut:
      return "MaxFanOut";
  }
  return "unknown";
}

namespace {

/// A search gives up after this many steps without improving its best
/// partial coloring: complete colorings are found in few steps, and long
/// no-progress stretches are thrash on an infeasible remainder. Restart
/// probes after attempt 0 get a quarter, so eight attempts stay cheap.
constexpr uint64_t kStallLimit = 5000;
constexpr uint64_t kProbeStallLimit = kStallLimit / 4;

/// A fixed-seed random 64-bit tag per row. A row set's fingerprint is
/// the XOR of its members' tags, so adding or removing a row updates the
/// fingerprint in O(1): the engine keys its cluster registry and
/// candidate memo on these instead of rehashing whole row vectors. The
/// seed is a constant, so tags (and everything keyed on them) are
/// identical across runs and thread widths.
std::vector<uint64_t> MakeRowTags(size_t num_rows) {
  Rng tag_rng(uint64_t{0x5e7f1a9bc0ffee11ULL});
  std::vector<uint64_t> tags(num_rows);
  for (uint64_t& tag : tags) {
    tag = tag_rng.Next();
  }
  return tags;
}

/// Immutable search state shared by every engine one ColorConstraints
/// call spawns (all restart attempts plus the greedy pass): the hoisted
/// QI-similarity target orders, the row->constraint incidence lists that
/// drive O(incidence) bookkeeping updates and the forward check, and the
/// row tag table behind every set fingerprint. Once `deadline` trips, the
/// target sorts left are skipped: ColorConstraints then builds no engine,
/// so nothing reads the incomplete orders.
struct SearchContext {
  SearchContext(const Relation& relation, const ConstraintGraph& graph,
                const CancellationToken& deadline) {
    size_t n = graph.NumNodes();
    size_t num_rows = relation.NumRows();
    // Incidence as one flat array with per-row offsets (no allocation
    // per row), filled in constraint order so each row's list ascends.
    incidence_begin.assign(num_rows + 1, 0);
    size_t total = 0;
    for (size_t j = 0; j < n; ++j) {
      total += graph.targets[j].size();
      for (RowId row : graph.targets[j]) ++incidence_begin[row + 1];
    }
    DIVA_CHECK_MSG(total <= std::numeric_limits<uint32_t>::max(),
                   "coloring: incidence overflows 32-bit offsets");
    std::partial_sum(incidence_begin.begin(), incidence_begin.end(),
                     incidence_begin.begin());
    incidence.resize(total);
    std::vector<uint32_t> cursor(incidence_begin.begin(),
                                 incidence_begin.end() - 1);
    for (size_t j = 0; j < n; ++j) {
      for (RowId row : graph.targets[j]) {
        incidence[cursor[row]++] = static_cast<uint32_t>(j);
      }
    }
    // One stable_sort per constraint, once, in parallel — CandidatesFor
    // used to redo this sort on every node visit. Filtering these orders
    // by the claimed bitset reproduces a fresh sort of the free subset
    // exactly, because SortByQiSimilarity's comparator is a strict total
    // order independent of which rows are present.
    std::atomic<size_t> sorts{0};
    sorted_targets = ParallelMap<std::vector<RowId>>(
        n, /*grain=*/1, [&](size_t j) -> std::vector<RowId> {
          if (deadline.Cancelled()) return {};
          sorts.fetch_add(1, std::memory_order_relaxed);
          return SortByQiSimilarity(relation, graph.targets[j]);
        });
    DIVA_COUNTER_ADD("coloring.target_sorts", sorts.load());
    row_tags = MakeRowTags(num_rows);
  }

  /// The constraints whose targets contain `row`, ascending.
  std::span<const uint32_t> Incident(RowId row) const {
    return {incidence.data() + incidence_begin[row],
            incidence.data() + incidence_begin[row + 1]};
  }

  std::vector<uint32_t> incidence_begin;  // num_rows + 1 offsets
  std::vector<uint32_t> incidence;
  std::vector<std::vector<RowId>> sorted_targets;
  std::vector<uint64_t> row_tags;
};

/// Per-(j, count) preserved contributions of one cluster: constraint j
/// gains `count` (= |cluster|) iff the cluster lies entirely inside j's
/// target set. Static facts, so they are computed once per enumerated
/// cluster and reused on every trial and memo replay.
using SparseContrib = std::vector<std::pair<uint32_t, uint64_t>>;

/// An enumerated cluster with its static derived facts precomputed:
/// rows sorted ascending, the XOR-of-tags fingerprint, and the sparse
/// contribution list. TryAssign consumes these directly instead of
/// re-sorting/re-hashing/re-counting per search step.
struct PreparedCluster {
  uint64_t fingerprint = 0;
  std::vector<RowId> rows;
  SparseContrib contrib;
};
struct PreparedCandidate {
  size_t preserved = 0;
  std::vector<PreparedCluster> clusters;
};

/// One entry of a candidate list: the enumerated clustering, replaced in
/// place by its prepared form the first time the search tries it. A
/// search usually takes an early admissible entry, so most entries are
/// never tried and never pay for the sort, fingerprint and contribution
/// pass; a memo replay finds the tried ones already prepared.
using CandidateEntry = std::variant<CandidateClustering, PreparedCandidate>;

/// A node's candidate list in trial order. A list is touched only by the
/// engine that owns it: the greedy pass takes attempt 0's memo after
/// attempt 0 has finished, and portfolio searches never share memos.
/// Lists are reference-counted so an epoch eviction during a recursive
/// Color() call cannot free a list an outer stack frame still iterates.
using CandidateList = std::shared_ptr<std::vector<CandidateEntry>>;

/// Backtracking engine implementing Algorithm 4 with dynamic candidate
/// enumeration: a node's clusterings are built from the target rows not
/// yet claimed by any chosen cluster, sized to the constraint's
/// *remaining* lower-bound deficit (occurrences preserved by other
/// constraints' clusters count). Disjoint-or-equal is enforced through a
/// claimed-row bitset; upper bounds through incremental per-constraint
/// preserved-count totals. Active clusters and candidate memo entries are
/// keyed by XOR-of-row-tag fingerprints that update in O(1) per row.
class ColoringEngine {
 public:
  ColoringEngine(const Relation& relation, const ConstraintSet& constraints,
                 const ConstraintGraph& graph, const SearchContext& context,
                 const ColoringOptions& options, bool forward_check,
                 double epsilon, uint64_t stall_limit)
      : relation_(relation),
        constraints_(constraints),
        graph_(graph),
        context_(context),
        options_(options),
        forward_check_(forward_check),
        epsilon_(epsilon),
        stall_limit_(stall_limit),
        rng_(options.seed) {
    size_t n = constraints.size();
    assignment_.assign(n, -1);
    sacrificed_.Resize(n);
    preserved_.assign(n, 0);
    basic_order_.resize(n);
    for (size_t i = 0; i < n; ++i) basic_order_[i] = i;
    if (options.strategy == SelectionStrategy::kBasic) {
      rng_.Shuffle(&basic_order_);
    }
    free_count_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      free_count_[j] = graph.targets[j].size();
    }
    claimed_fp_.assign(n, 0);
    in_target_scratch_.assign(n, 0);
    delta_scratch_.assign(n, 0);
    // The single empty clustering handed to zero-deficit nodes, born
    // prepared and shared so the hot "lower bound already met" path
    // allocates nothing.
    trivial_candidates_ = std::make_shared<std::vector<CandidateEntry>>(
        1, CandidateEntry(PreparedCandidate{}));
    // Shared zero-element list for structurally dead nodes (the
    // EnumerationIsTriviallyEmpty fast path skips enumeration and memo).
    empty_candidates_ = std::make_shared<std::vector<CandidateEntry>>();
    claimed_.Resize(relation.NumRows());
    memo_.resize(n);
    outcome_.assignment.assign(n, -1);
    outcome_.preserved.assign(n, 0);
  }

  ColoringOutcome Run() {
    SnapshotIfBetter();
    bool finished = Color();
    outcome_.complete = finished && sacrificed_count_ == 0;
    outcome_.steps = steps_;
    outcome_.backtracks = backtracks_;
    outcome_.budget_exhausted = budget_exhausted_;
    return std::move(outcome_);
  }

 private:
  struct ActiveCluster {
    std::vector<RowId> rows;  // sorted ascending; the identity
    SparseContrib contrib;
    int refcount = 0;
  };
  /// Keyed by the cluster's row-set fingerprint; `rows` inside the entry
  /// is the collision oracle (checked under DCHECK on every hit).
  using Registry = std::unordered_map<uint64_t, ActiveCluster>;

  struct MemoKey {
    uint64_t fingerprint;  // claimed rows restricted to the node's targets
    uint64_t deficit;
    uint64_t headroom;
    bool operator==(const MemoKey& other) const {
      return fingerprint == other.fingerprint && deficit == other.deficit &&
             headroom == other.headroom;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const {
      uint64_t h = key.fingerprint;
      h ^= (key.deficit + 0x9e3779b97f4a7c15ULL) + (h << 6) + (h >> 2);
      h ^= (key.headroom + 0x9e3779b97f4a7c15ULL) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  /// Memo values are the engine's own candidate lists: a hit hands back
  /// a refcount bump, not a deep copy, with the entries earlier visits
  /// tried already prepared.
  using Memo = std::unordered_map<MemoKey, CandidateList, MemoKeyHash>;

  uint64_t FingerprintOf(const std::vector<RowId>& rows) const {
    uint64_t fp = 0;
    for (RowId row : rows) fp ^= context_.row_tags[row];
    return fp;
  }

  /// Claims `row` for an active cluster: O(#constraints targeting row)
  /// bookkeeping instead of a loop over every constraint.
  void ClaimRow(RowId row) {
    claimed_.Set(row);
    for (uint32_t j : context_.Incident(row)) {
      --free_count_[j];
      claimed_fp_[j] ^= context_.row_tags[row];
    }
  }

  void ReleaseRow(RowId row) {
    claimed_.Reset(row);
    for (uint32_t j : context_.Incident(row)) {
      ++free_count_[j];
      claimed_fp_[j] ^= context_.row_tags[row];
    }
  }

  bool Color() {
    if (colored_count_ + sacrificed_count_ == constraints_.size()) {
      return true;
    }
    // Poll the deadline before candidate enumeration too: CandidatesFor
    // can be expensive, and an expired run should not start another one.
    if (options_.deadline.Cancelled()) {
      budget_exhausted_ = true;
      return false;
    }
    size_t node = SelectNode();

    CandidateList candidates = CandidatesFor(node);
    if (!forward_check_ && candidates->empty()) {
      // Greedy mode: a node with no admissible clustering is sacrificed
      // (left uncolored) so the rest of Sigma can still be satisfied.
      sacrificed_.Set(node);
      ++sacrificed_count_;
      if (Color()) return true;
      sacrificed_.Reset(node);
      --sacrificed_count_;
      return false;
    }

    // Entries are prepared in place, never added or removed, so a
    // recursive visit that tries later entries of this same list (a memo
    // hit) leaves this frame's references valid.
    for (CandidateEntry& entry : *candidates) {
      ++steps_;
      if (steps_ > options_.step_budget ||
          steps_ - last_improvement_ > stall_limit_ ||
          options_.deadline.Cancelled()) {
        budget_exhausted_ = true;
        return false;
      }
      const PreparedCandidate& candidate = PrepareOnFirstTrial(&entry);
      std::vector<uint64_t> activated;
      if (!TryAssign(candidate, &activated)) continue;
      assignment_[node] = static_cast<int>(candidate.preserved);
      ++colored_count_;
      SnapshotIfBetter();
      if (Color()) return true;
      Unassign(node, activated);
      ++backtracks_;
      if (budget_exhausted_) return false;
    }
    return false;
  }

  /// Candidate clusterings of `node` under the current partial coloring,
  /// in trial order; Color() prepares each one when it first tries it.
  /// The result is a pure function of (free target set, deficit,
  /// headroom) — the enumeration seed is fixed per node and the
  /// least-constraining ordering reads only static target bitmaps — so
  /// backtracking re-visits replay the memo instead of re-enumerating.
  /// No engine RNG is consumed here, which is why the search tree is
  /// identical with the memo on or off.
  CandidateList CandidatesFor(size_t node) {
    const DiversityConstraint& constraint = constraints_[node];
    uint64_t have = preserved_[node];
    // Occurrences already preserved by neighbors' clusters count toward
    // the lower bound; no deficit means the empty clustering suffices
    // (and claiming more rows can only restrict other nodes).
    if (have >= constraint.lower()) {
      return trivial_candidates_;
    }
    size_t deficit = constraint.lower() - static_cast<size_t>(have);
    size_t headroom = constraint.upper() - static_cast<size_t>(have);

    // Structurally dead node: no preserved-count in [deficit, headroom]
    // is even representable over the remaining free targets. O(1) via
    // the incremental free count — skip the enumeration AND the memo
    // (no point spending an entry on a node that cannot be colored).
    if (EnumerationIsTriviallyEmpty(static_cast<size_t>(free_count_[node]),
                                    options_.k, deficit, headroom)) {
      return empty_candidates_;
    }

    MemoKey key{claimed_fp_[node], deficit, headroom};
    if (options_.memo) {
      auto it = memo_[node].find(key);
      if (it != memo_[node].end()) {
        DIVA_COUNTER_ADD("coloring.memo_hits", 1);
        return it->second;
      }
      DIVA_COUNTER_ADD("coloring.memo_misses", 1);
    }

    // The free targets, in QI-similarity order: filtering the hoisted
    // per-constraint order by the claimed bitset is exactly the order a
    // fresh SortByQiSimilarity of the free subset would produce.
    std::vector<RowId> free_targets;
    free_targets.reserve(static_cast<size_t>(free_count_[node]));
    for (RowId row : context_.sorted_targets[node]) {
      if (!claimed_.Test(row)) free_targets.push_back(row);
    }

    ClusteringEnumOptions enumeration = options_.enumeration;
    enumeration.seed = options_.seed * 1000003ULL + node;
    std::vector<CandidateClustering> enumerated = EnumerateClusteringsQiSorted(
        relation_, free_targets, options_.k, deficit, headroom, enumeration);
    if (options_.strategy != SelectionStrategy::kBasic) {
      OrderLeastConstrainingFirst(node, &enumerated);
    }
    auto candidates = std::make_shared<std::vector<CandidateEntry>>(
        std::make_move_iterator(enumerated.begin()),
        std::make_move_iterator(enumerated.end()));

    if (options_.memo) {
      if (memo_entries_ >= options_.memo_capacity) {
        // Epoch eviction: drop everything rather than track recency; the
        // next few visits repopulate the hot keys.
        DIVA_COUNTER_ADD("coloring.memo_evictions", memo_entries_);
        for (Memo& memo : memo_) memo.clear();
        memo_entries_ = 0;
      }
      memo_[node].emplace(key, candidates);
      ++memo_entries_;
    }
    return candidates;
  }

  /// The prepared form of `entry`, built in place on the first call:
  /// the static facts of the candidate (sorted rows, fingerprint, sparse
  /// contributions), so this trial and every later one — memo replays
  /// included — skip straight to the dynamic checks.
  const PreparedCandidate& PrepareOnFirstTrial(CandidateEntry* entry) {
    if (auto* raw = std::get_if<CandidateClustering>(entry)) {
      PreparedCandidate prepared = Prepare(std::move(*raw));
      *entry = std::move(prepared);
      DIVA_COUNTER_ADD("coloring.candidates_prepared", 1);
    }
    return std::get<PreparedCandidate>(*entry);
  }

  PreparedCandidate Prepare(CandidateClustering&& candidate) {
    PreparedCandidate out;
    out.preserved = candidate.preserved;
    out.clusters.reserve(candidate.clusters.size());
    for (Cluster& cluster : candidate.clusters) {
      PreparedCluster entry;
      entry.rows = std::move(cluster);
      std::sort(entry.rows.begin(), entry.rows.end());
      entry.fingerprint = FingerprintOf(entry.rows);
      // Per-constraint overlap in one incidence pass; full containment
      // (|overlap| == |cluster|) is the only way a cluster preserves
      // occurrences for constraint j.
      std::fill(in_target_scratch_.begin(), in_target_scratch_.end(), 0);
      for (RowId row : entry.rows) {
        for (uint32_t j : context_.Incident(row)) ++in_target_scratch_[j];
      }
      for (size_t j = 0; j < constraints_.size(); ++j) {
        if (in_target_scratch_[j] == entry.rows.size()) {
          entry.contrib.emplace_back(static_cast<uint32_t>(j),
                                     entry.rows.size());
        }
      }
      out.clusters.push_back(std::move(entry));
    }
    return out;
  }

  /// Least-constraining-value ordering for the selective strategies:
  /// among candidates preserving the same count, try the ones that WASTE
  /// the fewest shared rows first. A cluster row that lies in another
  /// constraint's target set is wasted when the cluster is not uniform on
  /// that target (the row is claimed but contributes nothing toward the
  /// other constraint's lower bound). (DIVA-Basic keeps its shuffled
  /// order.) Per-constraint overlap counts come from the incidence lists
  /// in one pass per cluster; a cluster fully inside target j contributes
  /// |cluster| there (zero waste), any partial overlap is pure waste.
  void OrderLeastConstrainingFirst(size_t node,
                                   std::vector<CandidateClustering>* candidates) {
    size_t n = constraints_.size();
    std::vector<std::pair<uint64_t, size_t>> keyed(candidates->size());
    for (size_t i = 0; i < candidates->size(); ++i) {
      uint64_t waste = 0;
      for (const Cluster& cluster : (*candidates)[i].clusters) {
        std::fill(in_target_scratch_.begin(), in_target_scratch_.end(), 0);
        for (RowId row : cluster) {
          for (uint32_t j : context_.Incident(row)) ++in_target_scratch_[j];
        }
        for (size_t j = 0; j < n; ++j) {
          if (j == node) continue;
          uint64_t in_target = in_target_scratch_[j];
          if (in_target != cluster.size()) waste += in_target;
        }
      }
      keyed[i] = {waste, i};
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       size_t pa = (*candidates)[a.second].preserved;
                       size_t pb = (*candidates)[b.second].preserved;
                       if (pa != pb) return pa < pb;
                       return a.first < b.first;
                     });
    std::vector<CandidateClustering> ordered;
    ordered.reserve(candidates->size());
    for (const auto& [waste, index] : keyed) {
      ordered.push_back(std::move((*candidates)[index]));
    }
    *candidates = std::move(ordered);
  }

  /// Checks consistency of `candidate` against the current state and, if
  /// consistent, activates its clusters. `activated` receives the
  /// fingerprints of clusters whose refcount this call incremented. All
  /// static facts (sorted rows, fingerprints, contributions) arrive
  /// precomputed; only the dynamic checks — registry lookups, claimed-row
  /// disjointness, bounds, forward check — run per trial.
  bool TryAssign(const PreparedCandidate& candidate,
                 std::vector<uint64_t>* activated) {
    // Phase 1: validate without mutating.
    size_t n = constraints_.size();
    std::vector<const PreparedCluster*> fresh;
    std::vector<uint64_t> reused;
    std::fill(delta_scratch_.begin(), delta_scratch_.end(), 0);
    for (const PreparedCluster& cluster : candidate.clusters) {
      auto it = registry_.find(cluster.fingerprint);
      if (it != registry_.end()) {
        // Fingerprint hit = identical row set (disjoint-or-equal makes a
        // real overlap-but-unequal cluster inadmissible anyway); a tag
        // collision would silently merge two clusters, so verify.
        DIVA_DCHECK(it->second.rows == cluster.rows);
        reused.push_back(cluster.fingerprint);
        continue;
      }
      // A new cluster may not touch any row owned by a different active
      // cluster (disjoint-or-equal condition).
      for (RowId row : cluster.rows) {
        if (claimed_.Test(row)) return false;
      }
      for (const auto& [j, count] : cluster.contrib) {
        delta_scratch_[j] += count;
      }
      fresh.push_back(&cluster);
    }
    // Upper-bound condition over every constraint (the paper checks
    // neighbors; non-neighbors have zero contribution, so checking all is
    // equivalent and simpler).
    for (size_t j = 0; j < n; ++j) {
      if (preserved_[j] + delta_scratch_[j] > constraints_[j].upper()) {
        return false;
      }
    }
    // Forward check: every still-uncolored constraint must be able to
    // reach its lower bound from its preserved total plus the target rows
    // that would remain free after this assignment. The fresh clusters
    // are disjoint and unclaimed, so one incidence pass over their rows
    // counts each constraint's newly claimed targets. (Disabled in the
    // greedy second pass, where partial colorings are acceptable.)
    if (forward_check_) {
      std::fill(in_target_scratch_.begin(), in_target_scratch_.end(), 0);
      for (const PreparedCluster* cluster : fresh) {
        for (RowId row : cluster->rows) {
          for (uint32_t j : context_.Incident(row)) ++in_target_scratch_[j];
        }
      }
      bool feasible = true;
      for (size_t j = 0; j < n && feasible; ++j) {
        if (assignment_[j] >= 0) continue;
        uint64_t reachable = preserved_[j] + delta_scratch_[j] +
                             (free_count_[j] - in_target_scratch_[j]);
        feasible = reachable >= constraints_[j].lower();
      }
      if (!feasible) {
        DIVA_COUNTER_ADD("coloring.forward_check_fails", 1);
        return false;
      }
    }

    // Phase 2: activate.
    for (const PreparedCluster* cluster : fresh) {
      for (RowId row : cluster->rows) ClaimRow(row);
      for (const auto& [j, count] : cluster->contrib) {
        preserved_[j] += count;
      }
      activated->push_back(cluster->fingerprint);
      bool inserted =
          registry_
              .emplace(cluster->fingerprint,
                       ActiveCluster{cluster->rows, cluster->contrib, 1})
              .second;
      // A failed emplace means a fingerprint collision between two
      // distinct fresh clusters of one candidate — possible only through
      // a tag collision.
      DIVA_DCHECK(inserted);
      (void)inserted;
    }
    for (uint64_t fp : reused) {
      auto it = registry_.find(fp);
      // Always-on: ++end()->refcount is UB in release builds; the hash
      // lookup above dominates the cost of this branch.
      DIVA_CHECK_MSG(it != registry_.end(),
                     "coloring: reused cluster missing from registry");
      ++it->second.refcount;
      activated->push_back(fp);
    }
    return true;
  }

  void Unassign(size_t node, const std::vector<uint64_t>& activated) {
    assignment_[node] = -1;
    --colored_count_;
    for (uint64_t fp : activated) {
      auto it = registry_.find(fp);
      // Always-on for the same reason as Assign: end() deref is UB and a
      // zero refcount would wrap and leak the cluster forever.
      DIVA_CHECK_MSG(it != registry_.end() && it->second.refcount > 0,
                     "coloring: unassigned cluster missing from registry");
      if (--it->second.refcount == 0) {
        for (RowId row : it->second.rows) ReleaseRow(row);
        for (const auto& [j, count] : it->second.contrib) {
          preserved_[j] -= count;
        }
        registry_.erase(it);
      }
    }
  }

  size_t SelectNode() {
    // Exploration: with probability epsilon pick any uncolored node, so
    // restart attempts escape a wedged deterministic order.
    if (epsilon_ > 0.0 && rng_.UniformDouble() < epsilon_) {
      std::vector<size_t> open;
      for (size_t node = 0; node < constraints_.size(); ++node) {
        if (assignment_[node] < 0 && !sacrificed_.Test(node)) {
          open.push_back(node);
        }
      }
      if (!open.empty()) {
        return open[static_cast<size_t>(rng_.NextBounded(open.size()))];
      }
    }
    // Zero-deficit nodes (lower bound already covered by other clusters)
    // are free wins for the selective strategies: they color with the
    // empty clustering, claim nothing, and shrink the problem.
    if (options_.strategy != SelectionStrategy::kBasic) {
      for (size_t node = 0; node < constraints_.size(); ++node) {
        if (assignment_[node] < 0 && !sacrificed_.Test(node) &&
            preserved_[node] >= constraints_[node].lower()) {
          return node;
        }
      }
    }
    switch (options_.strategy) {
      case SelectionStrategy::kBasic: {
        for (size_t node : basic_order_) {
          if (assignment_[node] < 0 && !sacrificed_.Test(node)) return node;
        }
        break;
      }
      case SelectionStrategy::kMinChoice: {
        // Most restrictive first. Proxy for the number of admissible
        // clusterings: the node's slack — how many spare free target
        // rows remain beyond its deficit (fewer spare rows, fewer
        // distinct subsets to choose from). Nodes whose deficit already
        // exceeds their free rows have zero clusterings and are picked
        // immediately (fail first).
        size_t best = constraints_.size();
        uint64_t best_slack = std::numeric_limits<uint64_t>::max();
        for (size_t node = 0; node < constraints_.size(); ++node) {
          if (assignment_[node] >= 0 || sacrificed_.Test(node)) continue;
          uint64_t lower = constraints_[node].lower();
          uint64_t deficit =
              lower > preserved_[node] ? lower - preserved_[node] : 0;
          uint64_t slack = free_count_[node] > deficit
                               ? free_count_[node] - deficit
                               : 0;
          if (free_count_[node] < deficit) slack = 0;  // fail first
          if (slack < best_slack) {
            best_slack = slack;
            best = node;
            ties_ = 1;
          } else if (slack == best_slack &&
                     rng_.NextBounded(++ties_) == 0) {
            best = node;  // random tie-break for restart diversity
          }
        }
        if (best < constraints_.size()) return best;
        break;
      }
      case SelectionStrategy::kMaxFanOut: {
        // Most interacting first (the paper's description); fanout ties
        // break randomly so restarts explore different orders.
        size_t best = constraints_.size();
        size_t best_fanout = 0;
        for (size_t node = 0; node < constraints_.size(); ++node) {
          if (assignment_[node] >= 0 || sacrificed_.Test(node)) continue;
          size_t fanout = 0;
          for (size_t neighbor : graph_.adjacency[node]) {
            if (assignment_[neighbor] < 0) ++fanout;
          }
          if (best == constraints_.size() || fanout > best_fanout) {
            best_fanout = fanout;
            best = node;
            ties_ = 1;
          } else if (fanout == best_fanout &&
                     rng_.NextBounded(++ties_) == 0) {
            best = node;  // random tie-break for restart diversity
          }
        }
        if (best < constraints_.size()) return best;
        break;
      }
    }
    // Fallback: first uncolored.
    for (size_t node = 0; node < constraints_.size(); ++node) {
      if (assignment_[node] < 0 && !sacrificed_.Test(node)) return node;
    }
    DIVA_CHECK_MSG(false, "SelectNode called with all nodes colored");
    return 0;
  }

  void SnapshotIfBetter() {
    if (best_colored_ != kNoSnapshot && colored_count_ <= best_colored_) {
      return;
    }
    best_colored_ = colored_count_;
    last_improvement_ = steps_;
    outcome_.assignment = assignment_;
    outcome_.preserved.assign(preserved_.begin(), preserved_.end());
    outcome_.chosen_clusters.clear();
    for (const auto& [fp, entry] : registry_) {
      outcome_.chosen_clusters.push_back(entry.rows);
    }
    // Canonical order: active clusters are pairwise disjoint, so their
    // smallest row ids are distinct and sorting by them is a strict total
    // order — the snapshot no longer inherits hash-map iteration order.
    std::sort(outcome_.chosen_clusters.begin(),
              outcome_.chosen_clusters.end(),
              [](const std::vector<RowId>& a, const std::vector<RowId>& b) {
                return a.front() < b.front();
              });
  }

  static constexpr size_t kNoSnapshot = std::numeric_limits<size_t>::max();

  const Relation& relation_;
  const ConstraintSet& constraints_;
  const ConstraintGraph& graph_;
  const SearchContext& context_;
  ColoringOptions options_;
  bool forward_check_;
  double epsilon_;
  uint64_t stall_limit_;
  Rng rng_;

  std::vector<int> assignment_;
  Bitset sacrificed_;
  size_t sacrificed_count_ = 0;
  std::vector<uint64_t> preserved_;
  std::vector<size_t> basic_order_;
  std::vector<uint64_t> free_count_;  // unclaimed target rows per constraint
  std::vector<uint64_t> claimed_fp_;  // fingerprint of claimed ∩ targets[j]
  size_t colored_count_ = 0;

  Registry registry_;  // active clusters only
  Bitset claimed_;     // rows owned by an active cluster
  std::vector<uint64_t> in_target_scratch_;
  std::vector<uint64_t> delta_scratch_;
  CandidateList trivial_candidates_;
  CandidateList empty_candidates_;

  std::vector<Memo> memo_;  // per node
  size_t memo_entries_ = 0;

  uint64_t steps_ = 0;
  uint64_t backtracks_ = 0;
  uint64_t last_improvement_ = 0;
  uint64_t ties_ = 1;  // scratch for random tie-breaking
  bool budget_exhausted_ = false;
  size_t best_colored_ = kNoSnapshot;

  ColoringOutcome outcome_;

 public:
  using MemoTable = std::vector<Memo>;

  /// Moves the engine's candidate memo out (leaving it empty), for a
  /// sequential handoff to another engine with the same per-node
  /// enumeration seeds: the lists change owner, they are never shared.
  MemoTable ExportMemo() {
    MemoTable table = std::move(memo_);
    memo_.clear();
    memo_.resize(constraints_.size());
    memo_entries_ = 0;
    return table;
  }

  /// Adopts a memo exported by a compatible engine. Memo entries are a
  /// pure function of (node, enumeration seed, claimed-fingerprint key),
  /// so this is sound exactly when both engines derive the same per-node
  /// enumeration seed — the driver only wires attempt 0 to the greedy
  /// pass, which share options.seed.
  void ImportMemo(MemoTable table) {
    DIVA_CHECK_MSG(table.size() == constraints_.size(),
                   "memo table from an engine over a different graph");
    memo_ = std::move(table);
    memo_entries_ = 0;
    for (const Memo& m : memo_) memo_entries_ += m.size();
  }
};

}  // namespace

ColoringOutcome ColorConstraints(const Relation& relation,
                                 const ConstraintSet& constraints,
                                 const ConstraintGraph& graph,
                                 const ColoringOptions& options) {
  DIVA_CHECK_MSG(graph.targets.size() == constraints.size(),
                 "graph must be built from the same constraint set");
  // Bitmaps, QI-sorted target orders, incidence lists, and row tags are
  // pure functions of (relation, graph): build them once and share across
  // every restart attempt and the greedy pass. A tripped deadline stops
  // the attempts loop below before any engine reads the context.
  SearchContext context(relation, graph, options.deadline);
  // Strict passes (lower-bound forward checking) with randomized
  // restarts: complete colorings are typically found within a few dozen
  // steps of a good ordering, so several cheap diversified attempts beat
  // one long chronological-backtracking grind.
  uint64_t budget = options.step_budget;
  uint64_t strict_budget = std::max<uint64_t>(1, budget / 2);
  uint64_t spent = 0;
  ColoringOutcome best;
  best.assignment.assign(constraints.size(), -1);
  best.preserved.assign(constraints.size(), 0);

  constexpr int kMaxAttempts = 8;
  // Attempt 0's engine outlives the loop: its memo feeds the greedy pass.
  std::unique_ptr<ColoringEngine> first_engine;
  for (int attempt = 0; spent < strict_budget && attempt < kMaxAttempts &&
                        !options.deadline.Cancelled();
       ++attempt) {
    DIVA_TRACE_SPAN_RANGE("coloring/attempt", attempt, attempt + 1);
    DIVA_COUNTER_ADD("coloring.attempts", 1);
    ColoringOptions pass = options;
    pass.seed = options.seed + 0x9e3779b97f4a7c15ULL * attempt;
    pass.step_budget = strict_budget - spent;
    // Attempt 0 is the pure strategy; later attempts explore (epsilon)
    // and, as probes that win quickly or not at all, stall out sooner.
    auto engine = std::make_unique<ColoringEngine>(
        relation, constraints, graph, context, pass, /*forward_check=*/true,
        /*epsilon=*/0.15 * attempt,
        attempt == 0 ? kStallLimit : kProbeStallLimit);
    ColoringOutcome outcome = engine->Run();
    if (attempt == 0) first_engine = std::move(engine);
    spent += outcome.steps;
    if (outcome.NumColored() > best.NumColored()) {
      uint64_t steps_so_far = spent;
      best = std::move(outcome);
      best.steps = steps_so_far;
    }
    if (best.complete) break;
  }
  if (best.complete) return best;

  // An expired deadline skips the greedy pass: what we have is the
  // anytime answer, flagged through the budget-exhaustion path.
  if (options.deadline.Cancelled()) {
    best.steps = spent;
    best.budget_exhausted = true;
    return best;
  }

  // Final greedy pass — no forward checking, so the search colors as many
  // nodes as it can even when some constraint is provably unsatisfiable.
  ColoringOptions second = options;
  second.step_budget = budget > spent ? budget - spent : 1;
  DIVA_TRACE_SPAN("coloring/greedy");
  ColoringEngine greedy(relation, constraints, graph, context, second,
                        /*forward_check=*/false, /*epsilon=*/0.1,
                        kStallLimit);
  // Attempt 0 and the greedy pass derive identical per-node enumeration
  // seeds from options.seed, so attempt 0's memo is directly reusable —
  // the memo is semantically transparent, so this changes no outcome,
  // only enumeration time.
  if (first_engine != nullptr) {
    greedy.ImportMemo(first_engine->ExportMemo());
  }
  ColoringOutcome fallback = greedy.Run();
  fallback.steps += spent;
  if (fallback.complete || fallback.NumColored() > best.NumColored()) {
    return fallback;
  }
  best.steps = fallback.steps;
  best.backtracks += fallback.backtracks;
  return best;
}

ColoringOutcome ColorConstraintsPortfolio(const Relation& relation,
                                          const ConstraintSet& constraints,
                                          const ConstraintGraph& graph,
                                          const ColoringOptions& options,
                                          size_t threads) {
  if (threads <= 1) {
    return ColorConstraints(relation, constraints, graph, options);
  }
  // One child token for the whole portfolio: the first complete search
  // trips it, and every search also stops when the caller's token trips.
  CancellationToken stop = CancellationToken::WithDeadlineAndParent(
      Deadline::Infinite(), options.deadline);
  std::vector<ColoringOutcome> outcomes(threads);
  // Coarse task parallelism (not a fork-join loop): each portfolio
  // search is free to use the data-parallel layer internally.
  TaskGroup group(threads - 1);
  std::vector<uint64_t> tickets;
  tickets.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    tickets.push_back(group.Submit([&, t] {
      ColoringOptions worker_options = options;
      worker_options.seed = options.seed + 0x51ed270b7a14ULL * t;
      worker_options.deadline = stop;
      outcomes[t] =
          ColorConstraints(relation, constraints, graph, worker_options);
      if (outcomes[t].complete) stop.RequestCancel();
    }));
  }
  for (uint64_t ticket : tickets) group.Wait(ticket);

  size_t best = 0;
  for (size_t t = 1; t < threads; ++t) {
    bool better =
        (outcomes[t].complete && !outcomes[best].complete) ||
        (outcomes[t].complete == outcomes[best].complete &&
         outcomes[t].NumColored() > outcomes[best].NumColored());
    if (better) best = t;
  }
  // Aggregate search effort across the portfolio for reporting.
  uint64_t steps = 0;
  uint64_t backtracks = 0;
  for (const ColoringOutcome& outcome : outcomes) {
    steps += outcome.steps;
    backtracks += outcome.backtracks;
  }
  ColoringOutcome winner = std::move(outcomes[best]);
  winner.steps = steps;
  winner.backtracks = backtracks;
  return winner;
}

}  // namespace diva
