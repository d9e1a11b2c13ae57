#include "core/shard.h"

#include <algorithm>

#include "common/bitset.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace diva {

UnionFind::UnionFind(size_t n)
    : parent_(n), rank_(n, 0), sets_(n) {
  for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
}

size_t UnionFind::Find(size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a);
  size_t rb = Find(b);
  if (ra == rb) return;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = static_cast<uint32_t>(ra);
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --sets_;
}

ShardPlan ComputeShardPlan(const ConstraintGraph& graph, size_t num_rows) {
  ShardPlan plan;
  const size_t n = graph.NumNodes();
  if (n == 0) {
    plan.residual_rows = num_rows;
    return plan;
  }

  UnionFind components(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j : graph.adjacency[i]) components.Union(i, j);
  }

  // Component index = rank of the component's smallest constraint index.
  // Scanning constraints in ascending order and appending a shard the
  // first time a root is seen yields exactly that order.
  std::vector<size_t> shard_of_root(n, static_cast<size_t>(-1));
  for (size_t i = 0; i < n; ++i) {
    size_t root = components.Find(i);
    if (shard_of_root[root] == static_cast<size_t>(-1)) {
      shard_of_root[root] = plan.shards.size();
      plan.shards.emplace_back();
    }
    plan.shards[shard_of_root[root]].constraints.push_back(i);
  }

  // A shard's rows = union of its constraints' target sets, ascending.
  // Target lists are sorted, so a merge + dedup keeps the order without
  // a global sort. A row targeted by two constraints forces an edge
  // between them, so each targeted row lands in exactly one shard.
  Bitset targeted(num_rows);
  for (Shard& shard : plan.shards) {
    std::vector<RowId> rows;
    for (size_t c : shard.constraints) {
      const std::vector<RowId>& targets = graph.targets[c];
      std::vector<RowId> merged;
      merged.reserve(rows.size() + targets.size());
      std::set_union(rows.begin(), rows.end(), targets.begin(),
                     targets.end(), std::back_inserter(merged));
      rows = std::move(merged);
    }
    for (RowId row : rows) targeted.Set(static_cast<size_t>(row));
    shard.rows = std::move(rows);
  }
  plan.residual_rows = num_rows - targeted.Count();
  return plan;
}

size_t ShardPlan::MaxShardRows() const {
  size_t max_rows = 0;
  for (const Shard& shard : shards) {
    max_rows = std::max(max_rows, shard.rows.size());
  }
  return max_rows;
}

uint64_t ShardSeed(uint64_t seed, size_t shard_index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (shard_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// Everything one shard produces: its (globalized) outcome plus the
/// deterministic counters buffered while it ran, committed by the
/// driver in shard-index order.
struct ShardRun {
  Status status = Status::OK();
  ColoringOutcome outcome;
  counters::Buffer counters;
};

/// Colors shard `shard_index`: gathers its rows from the input, remaps
/// the component's constraints/graph to local ids, and runs the search
/// with the shard's seed stream. Row ids in the returned outcome's
/// clusters are mapped back to global ids; assignment/preserved stay in
/// local (component) order for the driver to scatter.
void RunOneShard(const ColumnStore& store, const ConstraintSet& constraints,
                 const ConstraintGraph& graph, const ShardPlan& plan,
                 size_t shard_index, const ColoringOptions& base_options,
                 ShardRun* run, ColoringOutcome* local_capture) {
  const Shard& shard = plan.shards[shard_index];
  // Buffered counters: updates made on this thread land in the shard's
  // buffer; inner pool workers write straight to the registry, which is
  // safe — deterministic counters commute, so totals are identical no
  // matter which thread recorded them. Spans stay on this thread.
  counters::ScopedBufferedCounters buffered_counters(&run->counters);
  run->status = DIVA_FAIL("shard.run");
  if (!run->status.ok()) return;
  DIVA_TRACE_SPAN_RANGE("diva/shard", static_cast<int64_t>(shard_index),
                        static_cast<int64_t>(shard_index + 1));
  DIVA_HISTOGRAM_RECORD("shard.rows", shard.rows.size());

  Relation sub = store.GatherRows(shard.rows);

  const size_t n = shard.constraints.size();
  ConstraintSet local_constraints;
  local_constraints.reserve(n);
  ConstraintGraph local_graph;
  local_graph.targets.resize(n);
  local_graph.adjacency.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const size_t global = shard.constraints[j];
    local_constraints.push_back(constraints[global]);
    // Global target rows -> local positions. Both lists are ascending
    // and targets ⊆ shard.rows, so one merge walk suffices.
    const std::vector<RowId>& targets = graph.targets[global];
    std::vector<RowId>& local_targets = local_graph.targets[j];
    local_targets.reserve(targets.size());
    size_t pos = 0;
    for (RowId target : targets) {
      while (pos < shard.rows.size() && shard.rows[pos] < target) ++pos;
      DIVA_CHECK_MSG(pos < shard.rows.size() && shard.rows[pos] == target,
                     "shard plan dropped a target row");
      local_targets.push_back(static_cast<RowId>(pos));
    }
    for (size_t neighbor : graph.adjacency[global]) {
      auto it = std::lower_bound(shard.constraints.begin(),
                                 shard.constraints.end(), neighbor);
      DIVA_CHECK_MSG(it != shard.constraints.end() && *it == neighbor,
                     "conflict edge crosses shards");
      local_graph.adjacency[j].push_back(
          static_cast<size_t>(it - shard.constraints.begin()));
    }
  }

  // A lone shard holds every constraint: it keeps the run's seeds, so it
  // searches exactly as one search over the whole relation would.
  ColoringOptions local_options = base_options;
  if (plan.shards.size() > 1) {
    local_options.seed = ShardSeed(base_options.seed, shard_index);
    local_options.enumeration.seed =
        ShardSeed(base_options.enumeration.seed, shard_index);
  }

  run->outcome =
      ColorConstraints(sub, local_constraints, local_graph, local_options);
  // Reuse capture wants local coordinates: positions into the row list,
  // valid against any future shard with identical contents.
  if (local_capture != nullptr) *local_capture = run->outcome;

  // Back to global row ids. Local ids are positions into the ascending
  // shard.rows list, so the map is monotone and clusters stay sorted.
  for (Cluster& cluster : run->outcome.chosen_clusters) {
    for (RowId& row : cluster) row = shard.rows[static_cast<size_t>(row)];
  }
}

/// Installs an adopted record as the shard's run: the local outcome is
/// remapped through the current row list and the recorded telemetry
/// becomes the run's buffer, replayed at the same merge slot a live
/// search would have used.
void AdoptOneShard(const ShardColoringRecord& record, const Shard& shard,
                   ShardRun* run) {
  run->outcome = record.outcome;
  for (Cluster& cluster : run->outcome.chosen_clusters) {
    for (RowId& row : cluster) row = shard.rows[static_cast<size_t>(row)];
  }
  run->counters = record.telemetry;
}

}  // namespace

Result<ColoringOutcome> RunShardedColoring(
    const ColumnStore& store, const ConstraintSet& constraints,
    const ConstraintGraph& graph, const ShardPlan& plan,
    const ColoringOptions& base_options, size_t workers,
    const std::vector<const ShardColoringRecord*>* adopt,
    std::vector<ShardColoringRecord>* capture) {
  const size_t num_shards = plan.shards.size();
  std::vector<ShardRun> runs(num_shards);
  if (capture != nullptr) {
    capture->clear();
    capture->resize(num_shards);
  }

  // Adopted shards never enter the scheduler: their runs are installed
  // up front, and their records (still in local coordinates) pass
  // through the capture verbatim so snapshots chain across deltas.
  std::vector<uint8_t> adopted(num_shards, 0);
  if (adopt != nullptr) {
    for (size_t s = 0; s < num_shards && s < adopt->size(); ++s) {
      if ((*adopt)[s] == nullptr) continue;
      adopted[s] = 1;
      AdoptOneShard(*(*adopt)[s], plan.shards[s], &runs[s]);
      if (capture != nullptr) (*capture)[s] = *(*adopt)[s];
    }
  }
  auto local_capture = [&](size_t s) -> ColoringOutcome* {
    return capture != nullptr ? &(*capture)[s].outcome : nullptr;
  };

  // One work item per live shard, claimed FIFO; with 0 workers (width 1)
  // Wait runs every item inline in shard order. Scheduling never changes
  // a result: every shard's computation is fixed by the plan, and the
  // merge below reads results in shard-index order.
  TaskGroup group(workers > 1 ? std::min(workers, num_shards) : 0);
  std::vector<uint64_t> tickets;
  tickets.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (adopted[s]) continue;
    tickets.push_back(group.Submit([&, s] {
      RunOneShard(store, constraints, graph, plan, s, base_options, &runs[s],
                  local_capture(s));
    }));
  }
  for (uint64_t ticket : tickets) group.Wait(ticket);

  // A faulted shard (or a merge fault) must never leak a partial merge:
  // every shard's buffered counters are dropped and the first error in
  // shard-index order surfaces as the run's Status.
  Status merge_fault = DIVA_FAIL("shard.merge");
  Status first_error = merge_fault;
  for (const ShardRun& run : runs) {
    if (first_error.ok() && !run.status.ok()) first_error = run.status;
  }
  if (!first_error.ok()) {
    for (ShardRun& run : runs) run.counters.Discard();
    if (capture != nullptr) capture->clear();
    return first_error;
  }

  // Deterministic adoption: counters and outcomes merge in shard-index
  // order regardless of which worker ran what, so counters and the
  // merged coloring are byte-identical at every width.
  ColoringOutcome merged;
  merged.complete = true;
  merged.assignment.assign(constraints.size(), -1);
  merged.preserved.assign(constraints.size(), 0);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardRun& run = runs[s];
    // Live shards hand their uncommitted buffer to the capture here —
    // the exact op sequence an adopting run will replay at this slot.
    if (capture != nullptr && !adopted[s]) (*capture)[s].telemetry = run.counters;
    run.counters.Commit();
    const Shard& shard = plan.shards[s];
    const ColoringOutcome& outcome = run.outcome;
    merged.complete = merged.complete && outcome.complete;
    merged.budget_exhausted =
        merged.budget_exhausted || outcome.budget_exhausted;
    merged.steps += outcome.steps;
    merged.backtracks += outcome.backtracks;
    for (size_t j = 0; j < shard.constraints.size(); ++j) {
      merged.assignment[shard.constraints[j]] = outcome.assignment[j];
      merged.preserved[shard.constraints[j]] = outcome.preserved[j];
    }
    merged.chosen_clusters.insert(merged.chosen_clusters.end(),
                                  outcome.chosen_clusters.begin(),
                                  outcome.chosen_clusters.end());
  }
  return merged;
}

}  // namespace diva
