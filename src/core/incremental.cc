#include "core/incremental.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "constraint/constraint_index.h"

namespace diva {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

/// Fingerprint of every DivaOptions knob that steers a search decision.
/// Execution-only knobs (threads, shard, audit, deadlines, incremental)
/// are deliberately excluded: they never change output bytes, so they
/// never invalidate reuse.
uint64_t OptionsFingerprint(const DivaOptions& options) {
  uint64_t h = kFnvBasis;
  h = FnvMix(h, options.k);
  h = FnvMix(h, static_cast<uint64_t>(options.strategy));
  h = FnvMix(h, options.seed);
  h = FnvMix(h, options.coloring_budget);
  h = FnvMix(h, options.enumeration.max_clusterings);
  h = FnvMix(h, options.enumeration.max_window_candidates);
  h = FnvMix(h, options.enumeration.random_subsets);
  h = FnvMix(h, options.enumeration.ordered ? 1 : 0);
  h = FnvMix(h, options.enumeration.seed);
  h = FnvMix(h, options.auto_tune_enumeration ? 1 : 0);
  h = FnvMix(h, options.strict ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(options.baseline));
  h = FnvMix(h, options.anonymizer.seed);
  h = FnvMix(h, options.l_diversity);
  uint64_t t_bits = 0;
  static_assert(sizeof(t_bits) == sizeof(options.t_closeness));
  std::memcpy(&t_bits, &options.t_closeness, sizeof(t_bits));
  h = FnvMix(h, t_bits);
  h = FnvMix(h, options.portfolio_threads);
  return h;
}

}  // namespace

void FinalizeSnapshot(PipelineSnapshot* snapshot, Relation input,
                      const ConstraintSet& constraints,
                      const DivaOptions& options) {
  if (!snapshot->valid) return;
  snapshot->constraints = constraints;
  snapshot->options_fingerprint = OptionsFingerprint(options);
  snapshot->input = std::make_shared<const Relation>(std::move(input));
}

size_t DeltaBatch::RowsDeleted() const {
  return std::set<RowId>(deleted.begin(), deleted.end()).size();
}

namespace {

/// ApplyDeltaToRelation, also returning in `survivors` the input row
/// that each surviving post-delta row copies (post row r < survivors'
/// size is input row survivors[r]) and in `deleted` the deleted input
/// rows, ascending and distinct.
Result<Relation> ApplyDeltaWithSurvivors(const Relation& input,
                                         const DeltaBatch& delta,
                                         std::vector<RowId>* survivors,
                                         std::vector<RowId>* deleted) {
  // Sorted and deduplicated: a row listed twice is deleted once.
  *deleted = delta.deleted;
  std::sort(deleted->begin(), deleted->end());
  deleted->erase(std::unique(deleted->begin(), deleted->end()),
                 deleted->end());
  const std::vector<RowId>& gone = *deleted;
  if (!gone.empty() && static_cast<size_t>(gone.back()) >= input.NumRows()) {
    return Status::InvalidArgument(
        "delta deletes row " + std::to_string(gone.back()) +
        " of a relation with " + std::to_string(input.NumRows()) + " rows");
  }
  // Survivor o is input row o + k, where k counts the deleted rows below
  // it: the deleted rows i with gone[i] - i <= o. Each chunk finds its
  // first k by binary search, then steps over the deleted rows it meets.
  survivors->resize(input.NumRows() - gone.size());
  ParallelFor(survivors->size(), /*grain=*/0, [&](size_t begin, size_t end) {
    size_t lo = 0;
    size_t hi = gone.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (gone[mid] - mid <= begin) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    size_t k = lo;
    RowId row = static_cast<RowId>(begin + k);
    for (size_t o = begin; o < end; ++o, ++row) {
      while (k < gone.size() && gone[k] == row) {
        ++k;
        ++row;
      }
      (*survivors)[o] = row;
    }
  });
  Relation post = input.SelectRows(*survivors, delta.inserted.size());
  for (const std::vector<std::string>& fields : delta.inserted) {
    Result<RowId> appended = post.AppendRowStrings(fields);
    if (!appended.ok()) return appended.status();
  }
  return post;
}

}  // namespace

ConstraintGraph CarryConstraintGraph(const ConstraintGraph& prior,
                                     const Relation& post,
                                     const ConstraintSet& constraints,
                                     const std::vector<RowId>& deleted,
                                     size_t survivors) {
  // A survivor keeps its cells, and interning only appends codes, so it
  // matches exactly the constraints its input row matched: each prior
  // target list maps through the survivor ids (an input row moves down
  // by the deleted rows below it), and the new rows, which follow every
  // survivor, are matched afresh and appended.
  const size_t n = constraints.size();
  std::vector<std::vector<size_t>> fresh_adjacency;
  const std::vector<std::vector<RowId>> fresh =
      ConstraintIndex(post, constraints)
          .Targets(&fresh_adjacency, static_cast<RowId>(survivors));
  ConstraintGraph graph;
  graph.targets.resize(n);
  std::vector<uint8_t> lost(n, 0);
  ParallelFor(n, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      std::vector<RowId>& targets = graph.targets[c];
      targets.resize(prior.targets[c].size() + fresh[c].size());
      RowId* next = targets.data();
      auto below = deleted.begin();  // first deleted row >= the target
      for (RowId row : prior.targets[c]) {
        if (below != deleted.end() && *below < row) {
          below = std::lower_bound(below, deleted.end(), row);
        }
        if (below != deleted.end() && *below == row) {
          lost[c] = 1;
          continue;
        }
        *next++ = row - static_cast<RowId>(below - deleted.begin());
      }
      next = std::copy(fresh[c].begin(), fresh[c].end(), next);
      targets.resize(static_cast<size_t>(next - targets.data()));
    }
  });
  // An edge stays while some row matches both ends. Only an edge whose
  // ends both lost rows can have lost its last such row, so those alone
  // look for one; the new rows' edges join the rest.
  graph.adjacency.resize(n);
  ParallelFor(n, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      std::vector<size_t> kept;
      for (size_t j : prior.adjacency[i]) {
        if (lost[i] && lost[j]) {
          const std::vector<RowId>& a = graph.targets[i];
          const std::vector<RowId>& b = graph.targets[j];
          auto x = a.begin();
          auto y = b.begin();
          while (x != a.end() && y != b.end() && *x != *y) {
            if (*x < *y) {
              ++x;
            } else {
              ++y;
            }
          }
          if (x == a.end() || y == b.end()) continue;
        }
        kept.push_back(j);
      }
      std::set_union(kept.begin(), kept.end(), fresh_adjacency[i].begin(),
                     fresh_adjacency[i].end(),
                     std::back_inserter(graph.adjacency[i]));
    }
  });
  return graph;
}

Result<Relation> ApplyDeltaToRelation(const Relation& input,
                                      const DeltaBatch& delta) {
  std::vector<RowId> survivors;
  std::vector<RowId> deleted;
  return ApplyDeltaWithSurvivors(input, delta, &survivors, &deleted);
}

Result<DeltaBatch> ParseDeltaFile(const std::string& text) {
  DeltaBatch delta;
  size_t line_number = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const char directive = line[0];
    std::string_view body = Trim(line.substr(1));
    if (directive == '-') {
      constexpr RowId kMaxRowId = std::numeric_limits<RowId>::max();
      Result<int64_t> id = ParseInt64(body);
      if (!id.ok() || *id < 0 || *id > int64_t{kMaxRowId}) {
        return Status::InvalidArgument(
            "delta line " + std::to_string(line_number) +
            ": expected '- <row_id>' with a row id in [0, " +
            std::to_string(kMaxRowId) + "], got '" + std::string(line) + "'");
      }
      delta.deleted.push_back(static_cast<RowId>(*id));
    } else if (directive == '+') {
      std::vector<std::string> fields = Split(body, ',');
      for (std::string& field : fields) field = std::string(Trim(field));
      delta.inserted.push_back(std::move(fields));
    } else {
      return Status::InvalidArgument(
          "delta line " + std::to_string(line_number) +
          ": expected '-' or '+' directive, got '" + std::string(line) + "'");
    }
  }
  return delta;
}

Result<DivaResult> ApplyDelta(const PipelineSnapshot& prior,
                              const DeltaBatch& delta,
                              const DivaOptions& options) {
  DIVA_TRACE_SPAN("diva/delta");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("delta.apply"));
  if (!prior.valid || prior.input == nullptr) {
    return Status::InvalidArgument(
        "prior snapshot is not reusable (captured from a degraded, "
        "generalized or portfolio run)");
  }
  const Relation& input = *prior.input;
  const ConstraintSet& constraints = prior.constraints;
  std::vector<RowId> survivors;
  std::vector<RowId> deleted;
  DIVA_ASSIGN_OR_RETURN(
      Relation post,
      ApplyDeltaWithSurvivors(input, delta, &survivors, &deleted));
  DIVA_COUNTER_ADD_EXEC("incremental.rows_deleted",
                        input.NumRows() + delta.inserted.size() -
                            post.NumRows());
  DIVA_COUNTER_ADD_EXEC("incremental.rows_inserted", delta.inserted.size());

  ConstraintGraph graph = CarryConstraintGraph(prior.graph, post, constraints,
                                               deleted, survivors.size());
  ShardPlan plan = ComputeShardPlan(graph, post.NumRows());
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("delta.recolor"));

  // Global reuse preconditions; any failure dirties every component
  // (still byte-identical to cold, just without the speedup).
  // `post` copies a dictionary before interning into it, so the input's
  // sizes are still the capture-time sizes.
  bool reusable = OptionsFingerprint(options) == prior.options_fingerprint;
  for (size_t col = 0; reusable && col < post.NumAttributes(); ++col) {
    reusable = post.dictionary(col).size() == input.dictionary(col).size();
  }

  // The dirty-component rule: a shard is clean iff it has the same
  // member-constraint list at the same component index (the positional
  // seed stream) and the same rows, cell for cell, in row-list order.
  // With no new value interned, `post` shares the prior input's
  // dictionaries, so equal codes are equal values; local target positions
  // and adjacency follow from content.
  PipelineHooks hooks;
  hooks.graph = &graph;
  hooks.plan = &plan;
  hooks.adopt.assign(plan.shards.size(), nullptr);
  size_t reused_shards = 0;
  if (reusable && prior.records.size() == prior.plan.shards.size()) {
    const size_t overlap =
        std::min(plan.shards.size(), prior.plan.shards.size());
    // The shards are independent, so they are compared in parallel.
    const std::vector<uint8_t> clean =
        ParallelMap<uint8_t>(overlap, /*grain=*/1, [&](size_t s) {
          const Shard& shard = plan.shards[s];
          const Shard& prior_shard = prior.plan.shards[s];
          return shard.constraints == prior_shard.constraints &&
                 std::equal(shard.rows.begin(), shard.rows.end(),
                            prior_shard.rows.begin(), prior_shard.rows.end(),
                            [&](RowId row, RowId prior_row) {
                              // A survivor copies its source row, so the
                              // same source means the same cells.
                              if (row < survivors.size() &&
                                  survivors[row] == prior_row) {
                                return true;
                              }
                              const auto cells = post.Row(row);
                              return std::equal(cells.begin(), cells.end(),
                                                input.Row(prior_row).begin());
                            });
        });
    for (size_t s = 0; s < overlap; ++s) {
      if (!clean[s]) continue;
      hooks.adopt[s] = prior.records[s];
      ++reused_shards;
    }
  }
  DIVA_COUNTER_ADD_EXEC("incremental.shards_reused", reused_shards);
  DIVA_COUNTER_ADD_EXEC("incremental.shards_recolored",
                        plan.shards.size() - reused_shards);

  auto snapshot = std::make_shared<PipelineSnapshot>();
  hooks.capture = snapshot.get();
  DIVA_ASSIGN_OR_RETURN(
      DivaResult result,
      RunDivaPipeline(post, constraints, options, hooks));

  // All-or-nothing merge: a fault here discards the fully built result,
  // so callers never observe partially merged output.
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("delta.merge"));

  if (snapshot->valid) {
    snapshot->graph = std::move(graph);
    snapshot->plan = std::move(plan);
    FinalizeSnapshot(snapshot.get(), std::move(post), constraints, options);
    result.snapshot = std::move(snapshot);
  }
  return result;
}

}  // namespace diva
