#include "core/incremental.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string_view>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/trace.h"

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
  h = FnvMix(h, options.enumeration.preserved_steps);
  h = FnvMix(h, options.enumeration.single_block_variant ? 1 : 0);
  h = FnvMix(h, options.enumeration.ordered ? 1 : 0);
  h = FnvMix(h, options.enumeration.seed);
  h = FnvMix(h, options.auto_tune_enumeration ? 1 : 0);
  h = FnvMix(h, options.strict ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(options.baseline));
  h = FnvMix(h, options.anonymizer.seed);
  h = FnvMix(h, options.anonymizer.sample_size);
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
  snapshot->dictionary_sizes.clear();
  for (size_t col = 0; col < input.NumAttributes(); ++col) {
    snapshot->dictionary_sizes.push_back(input.dictionary(col).size());
  }
  snapshot->options_fingerprint = OptionsFingerprint(options);
  snapshot->input.emplace(std::move(input));
}

size_t DeltaBatch::RowsDeleted() const {
  return std::set<RowId>(deleted.begin(), deleted.end()).size();
}

Result<Relation> ApplyDeltaToRelation(const Relation& input,
                                      const DeltaBatch& delta) {
  // Sorted and deduplicated: a row listed twice is deleted once.
  std::vector<RowId> deleted = delta.deleted;
  std::sort(deleted.begin(), deleted.end());
  deleted.erase(std::unique(deleted.begin(), deleted.end()), deleted.end());
  if (!deleted.empty() &&
      static_cast<size_t>(deleted.back()) >= input.NumRows()) {
    return Status::InvalidArgument(
        "delta deletes row " + std::to_string(deleted.back()) +
        " of a relation with " + std::to_string(input.NumRows()) + " rows");
  }
  std::vector<RowId> keep;
  keep.reserve(input.NumRows() - deleted.size());
  size_t next_delete = 0;
  for (RowId row = 0; row < static_cast<RowId>(input.NumRows()); ++row) {
    if (next_delete < deleted.size() && deleted[next_delete] == row) {
      ++next_delete;
      continue;
    }
    keep.push_back(row);
  }
  Relation post = input.SelectRows(keep, delta.inserted.size());
  for (const std::vector<std::string>& fields : delta.inserted) {
    Result<RowId> appended = post.AppendRowStrings(fields);
    if (!appended.ok()) return appended.status();
  }
  return post;
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
  if (!prior.valid || !prior.input.has_value()) {
    return Status::InvalidArgument(
        "prior snapshot is not reusable (captured from a degraded, "
        "generalized or portfolio run)");
  }
  const Relation& input = *prior.input;
  const ConstraintSet& constraints = prior.constraints;
  DIVA_ASSIGN_OR_RETURN(Relation post, ApplyDeltaToRelation(input, delta));
  DIVA_COUNTER_ADD_EXEC("incremental.rows_deleted",
                        input.NumRows() + delta.inserted.size() -
                            post.NumRows());
  DIVA_COUNTER_ADD_EXEC("incremental.rows_inserted", delta.inserted.size());

  // The conflict graph is rebuilt, not maintained: one ConstraintIndex
  // pass over the post-delta relation costs less than remapping every
  // target list and re-merging the pairs a changed constraint touches.
  const ConstraintGraph graph = BuildConstraintGraph(post, constraints);
  ShardPlan plan = ComputeShardPlan(graph, post.NumRows());
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("delta.recolor"));

  // Global reuse preconditions; any failure dirties every component
  // (still byte-identical to cold, just without the speedup).
  bool reusable = OptionsFingerprint(options) == prior.options_fingerprint &&
                  post.NumAttributes() == prior.dictionary_sizes.size();
  for (size_t col = 0; reusable && col < post.NumAttributes(); ++col) {
    reusable = post.dictionary(col).size() == prior.dictionary_sizes[col];
  }

  // The dirty-component rule: a shard is clean iff it has the same
  // member-constraint list at the same component index (the positional
  // seed stream) and the same rows, cell for cell, in row-list order.
  // `post` shares the prior input's dictionaries, so equal codes are equal
  // values; local target positions and adjacency follow from content.
  PipelineHooks hooks;
  hooks.graph = &graph;
  hooks.plan = &plan;
  hooks.adopt_coloring.assign(plan.shards.size(), nullptr);
  hooks.adopt_baseline.assign(plan.shards.size(), nullptr);
  size_t reused_shards = 0;
  if (reusable && prior.coloring.size() == prior.plan.shards.size()) {
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
                              const auto cells = post.Row(row);
                              return std::equal(cells.begin(), cells.end(),
                                                input.Row(prior_row).begin());
                            });
        });
    for (size_t s = 0; s < overlap; ++s) {
      if (!clean[s]) continue;
      hooks.adopt_coloring[s] = &prior.coloring[s];
      if (s < prior.baseline.size() && prior.baseline[s].used) {
        hooks.adopt_baseline[s] = &prior.baseline[s];
      }
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
    FinalizeSnapshot(snapshot.get(), std::move(post), constraints, options);
    result.snapshot = std::move(snapshot);
  }
  return result;
}

}  // namespace diva
