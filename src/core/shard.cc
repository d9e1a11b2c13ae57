#include "core/shard.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "anon/suppress.h"
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
  // a global sort. Shards merge independently, in parallel.
  ParallelFor(plan.shards.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      std::vector<RowId> rows;
      for (size_t c : plan.shards[s].constraints) {
        const std::vector<RowId>& targets = graph.targets[c];
        std::vector<RowId> merged;
        merged.reserve(rows.size() + targets.size());
        std::set_union(rows.begin(), rows.end(), targets.begin(),
                       targets.end(), std::back_inserter(merged));
        rows = std::move(merged);
      }
      plan.shards[s].rows = std::move(rows);
    }
  });
  // A row targeted by two constraints forces an edge between them, so
  // each targeted row lands in exactly one shard: the shards are
  // disjoint, and the rows none of them holds are the residual.
  plan.residual_rows = num_rows;
  for (const Shard& shard : plan.shards) plan.residual_rows -= shard.rows.size();
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

/// Everything one shard produces: its record (the outcome in local
/// coordinates plus the deterministic counter ops buffered while it
/// ran, replayed by the driver in shard-index order) and the record's
/// chosen clusters in global row ids.
struct ShardRun {
  Status status = Status::OK();
  std::shared_ptr<const ShardRecord> record;
  Clustering clusters;
};

/// `local` with every row mapped from its position in the shard's
/// ascending row list to its global id. The map is monotone, so the
/// clusters stay sorted.
Clustering GlobalClusters(const Clustering& local, const Shard& shard) {
  Clustering global;
  global.reserve(local.size());
  for (const Cluster& cluster : local) {
    Cluster& rows = global.emplace_back(cluster.size());
    std::transform(cluster.begin(), cluster.end(), rows.begin(),
                   [&](RowId row) { return shard.rows[row]; });
  }
  return global;
}

/// Runs shard `shard_index`: gathers its rows from the input, remaps
/// the component's constraints/graph to local ids, runs the search with
/// the shard's seed stream, then, with two or more shards, clusters the
/// rows its chosen clusters left uncovered with `baseline`. No other
/// shard's cluster reaches a row of this one, so those are exactly the
/// rows of the shard the whole coloring leaves uncovered. The record
/// keeps both in local coordinates — positions into the row list, valid
/// against any future shard with identical contents; the run's clusters
/// are in global ids.
void RunOneShard(const ColumnStore& store, const ConstraintSet& constraints,
                 const ConstraintGraph& graph, const ShardPlan& plan,
                 size_t shard_index, const ColoringOptions& base_options,
                 const ShardBaseline& baseline, ShardRun* run) {
  const Shard& shard = plan.shards[shard_index];
  auto record = std::make_shared<ShardRecord>();
  {
    // Buffered counters: updates made on this thread land in the shard's
    // buffer; inner pool workers write straight to the registry, which is
    // safe — deterministic counters commute, so totals are identical no
    // matter which thread recorded them. Spans stay on this thread.
    counters::ScopedBufferedCounters buffered_counters(&record->telemetry);
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

    // A lone shard holds every constraint: it keeps the run's seeds, so
    // it searches exactly as one search over the whole relation would.
    ColoringOptions local_options = base_options;
    if (plan.shards.size() > 1) {
      local_options.seed = ShardSeed(base_options.seed, shard_index);
      local_options.enumeration.seed =
          ShardSeed(base_options.enumeration.seed, shard_index);
    }

    record->outcome =
        ColorConstraints(sub, local_constraints, local_graph, local_options);

    if (baseline != nullptr && plan.Effective()) {
      std::vector<uint8_t> covered(shard.rows.size(), 0);
      for (const Cluster& cluster : record->outcome.chosen_clusters) {
        for (RowId row : cluster) covered[row] = 1;
      }
      std::vector<RowId> uncovered;
      for (size_t pos = 0; pos < covered.size(); ++pos) {
        if (covered[pos] == 0) uncovered.push_back(static_cast<RowId>(pos));
      }
      if (uncovered.size() >= base_options.k) {
        Result<Clustering> clusters = baseline(sub, uncovered);
        if (clusters.ok()) {
          record->baseline = std::move(clusters).value();
        } else if (clusters.status().code() == StatusCode::kDeadlineExceeded) {
          record->baseline_cut = true;
        } else {
          run->status = clusters.status();
          return;
        }
      }
    }
    if (sub.schema().qi_indices().size() <= kStarMaskColumns) {
      for (const Clustering* clusters :
           {&record->outcome.chosen_clusters, &record->baseline}) {
        for (const Cluster& cluster : *clusters) {
          record->star_masks.push_back(StarMask(sub, cluster));
        }
      }
    }
  }
  run->clusters = GlobalClusters(record->outcome.chosen_clusters, shard);
  run->record = std::move(record);
}

}  // namespace

Result<ColoringOutcome> RunShardedColoring(
    const ColumnStore& store, const ConstraintSet& constraints,
    const ConstraintGraph& graph, const ShardPlan& plan,
    const ColoringOptions& base_options, size_t workers,
    const std::vector<std::shared_ptr<const ShardRecord>>* adopt,
    std::vector<std::shared_ptr<const ShardRecord>>* capture,
    const ShardBaseline& baseline) {
  const size_t num_shards = plan.shards.size();
  std::vector<ShardRun> runs(num_shards);
  if (capture != nullptr) capture->clear();

  // Adopted shards never enter the scheduler: each takes its record by
  // pointer, and their global clusters are remapped in parallel up front.
  std::vector<size_t> adopted;
  if (adopt != nullptr) {
    for (size_t s = 0; s < num_shards && s < adopt->size(); ++s) {
      if ((*adopt)[s] == nullptr) continue;
      runs[s].record = (*adopt)[s];
      adopted.push_back(s);
    }
  }
  ParallelFor(adopted.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ShardRun& run = runs[adopted[i]];
      run.clusters = GlobalClusters(run.record->outcome.chosen_clusters,
                                    plan.shards[adopted[i]]);
    }
  });

  // One work item per live shard, claimed FIFO; with 0 workers (width 1)
  // Wait runs every item inline in shard order. Scheduling never changes
  // a result: every shard's computation is fixed by the plan, and the
  // merge below reads results in shard-index order.
  const size_t live = num_shards - adopted.size();
  TaskGroup group(workers > 1 ? std::min(workers, live) : 0);
  std::vector<uint64_t> tickets;
  tickets.reserve(live);
  for (size_t s = 0; s < num_shards; ++s) {
    if (runs[s].record != nullptr) continue;
    tickets.push_back(group.Submit([&, s] {
      RunOneShard(store, constraints, graph, plan, s, base_options, baseline,
                  &runs[s]);
    }));
  }
  for (uint64_t ticket : tickets) group.Wait(ticket);

  // A faulted shard (or a merge fault) must never leak a partial merge:
  // no shard's buffered counters are replayed and the first error in
  // shard-index order surfaces as the run's Status.
  Status first_error = DIVA_FAIL("shard.merge");
  for (const ShardRun& run : runs) {
    if (first_error.ok() && !run.status.ok()) first_error = run.status;
  }
  if (!first_error.ok()) return first_error;

  // Deterministic merge: counters and outcomes merge in shard-index
  // order regardless of which worker ran what, so counters and the
  // merged coloring are byte-identical at every width. Every shard,
  // live or adopted, replays its record's uncommitted op sequence here:
  // the exact sequence an adopting run will replay at this slot.
  ColoringOutcome merged;
  merged.complete = true;
  merged.assignment.assign(constraints.size(), -1);
  merged.preserved.assign(constraints.size(), 0);
  size_t num_clusters = 0;
  for (const ShardRun& run : runs) num_clusters += run.clusters.size();
  merged.chosen_clusters.reserve(num_clusters);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardRun& run = runs[s];
    counters::Buffer replay = run.record->telemetry;
    replay.Commit();
    const Shard& shard = plan.shards[s];
    const ColoringOutcome& outcome = run.record->outcome;
    merged.complete = merged.complete && outcome.complete;
    merged.budget_exhausted =
        merged.budget_exhausted || outcome.budget_exhausted;
    merged.steps += outcome.steps;
    merged.backtracks += outcome.backtracks;
    for (size_t j = 0; j < shard.constraints.size(); ++j) {
      merged.assignment[shard.constraints[j]] = outcome.assignment[j];
      merged.preserved[shard.constraints[j]] = outcome.preserved[j];
    }
    std::move(run.clusters.begin(), run.clusters.end(),
              std::back_inserter(merged.chosen_clusters));
  }
  if (capture != nullptr) {
    capture->reserve(num_shards);
    for (ShardRun& run : runs) capture->push_back(std::move(run.record));
  }
  return merged;
}

}  // namespace diva
