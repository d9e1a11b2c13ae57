#include "layered.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "anon/suppress.h"
#include "common/bitset.h"
#include "common/parallel.h"
#include "core/coloring.h"
#include "core/constraint_graph.h"
#include "core/integrate.h"
#include "core/shard.h"
#include "relation/columnar.h"
#include "report.h"
#include "verify/auditor.h"

namespace diva_bench {

using diva::Clustering;
using diva::ConstraintSet;
using diva::DivaOptions;
using diva::Relation;
using diva::Result;
using diva::RowId;
using diva::Status;

namespace {

/// RunDiva's enumeration tuning (core/diva.cc), for the strategies the
/// workloads use.
diva::ClusteringEnumOptions TuneEnumeration(const DivaOptions& options) {
  diva::ClusteringEnumOptions enumeration = options.enumeration;
  if (!options.auto_tune_enumeration) return enumeration;
  enumeration.seed = options.seed;
  if (options.strategy == diva::SelectionStrategy::kBasic) {
    enumeration.ordered = false;
    enumeration.max_clusterings = 256;
    enumeration.max_window_candidates = 48;
    enumeration.random_subsets = 32;
  } else {
    enumeration.ordered = true;
  }
  return enumeration;
}

/// Clusters `rows` of `relation` with the baseline over a gathered
/// sub-relation in local ids, remapped back to global ids.
Result<Clustering> BuildGathered(const Relation& relation,
                                 const std::vector<RowId>& rows,
                                 diva::Anonymizer* baseline, size_t k) {
  const Relation sub = relation.SelectRows(rows);
  std::vector<RowId> local(rows.size());
  for (size_t i = 0; i < local.size(); ++i) local[i] = static_cast<RowId>(i);
  DIVA_ASSIGN_OR_RETURN(Clustering clusters,
                        baseline->BuildClusters(sub, local, k));
  for (diva::Cluster& cluster : clusters) {
    for (RowId& row : cluster) row = rows[static_cast<size_t>(row)];
  }
  return clusters;
}

/// The sharded baseline phase of RunDiva: each shard's uncovered rows
/// are clustered on their own, in shard order; shards left with fewer
/// than k uncovered rows pool with the residual rows into one trailing
/// run, and a pool still smaller than k is returned as `leftover`.
Result<Clustering> ShardedBaseline(const Relation& relation,
                                   const diva::Bitset& covered,
                                   const std::vector<RowId>& remaining,
                                   const diva::ShardPlan& plan,
                                   const DivaOptions& options,
                                   std::vector<RowId>* leftover) {
  const size_t num_shards = plan.shards.size();
  std::vector<std::vector<RowId>> uncovered(num_shards);
  diva::Bitset targeted(relation.NumRows());
  for (size_t s = 0; s < num_shards; ++s) {
    for (RowId row : plan.shards[s].rows) {
      targeted.Set(static_cast<size_t>(row));
      if (!covered.Test(row)) uncovered[s].push_back(row);
    }
  }
  std::vector<RowId> pool;
  for (RowId row : remaining) {
    if (!targeted.Test(static_cast<size_t>(row))) pool.push_back(row);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (!uncovered[s].empty() && uncovered[s].size() < options.k) {
      pool.insert(pool.end(), uncovered[s].begin(), uncovered[s].end());
    }
  }
  std::sort(pool.begin(), pool.end());

  std::unique_ptr<diva::Anonymizer> baseline =
      diva::MakeBaselineAnonymizer(options);
  Clustering all;
  for (size_t s = 0; s < num_shards; ++s) {
    if (uncovered[s].size() < options.k) continue;
    DIVA_ASSIGN_OR_RETURN(Clustering built,
                          BuildGathered(relation, uncovered[s], baseline.get(),
                                        options.k));
    for (diva::Cluster& cluster : built) all.push_back(std::move(cluster));
  }
  if (pool.size() >= options.k) {
    DIVA_ASSIGN_OR_RETURN(
        Clustering built,
        BuildGathered(relation, pool, baseline.get(), options.k));
    for (diva::Cluster& cluster : built) all.push_back(std::move(cluster));
  } else if (!pool.empty()) {
    *leftover = std::move(pool);
  }
  return all;
}

/// RunDiva's fold of fewer-than-k stragglers into the existing cluster
/// that adds the fewest new violations, then the least suppression.
void MergeLeftoverRows(Relation* out, Clustering* clusters,
                       const std::vector<RowId>& leftover,
                       const ConstraintSet& constraints) {
  for (RowId row : leftover) {
    std::vector<size_t> before = diva::ViolatedConstraints(*out, constraints);
    size_t best = 0;
    size_t best_violations = static_cast<size_t>(-1);
    size_t best_cost = static_cast<size_t>(-1);
    for (size_t c = 0; c < clusters->size(); ++c) {
      diva::Cluster merged = (*clusters)[c];
      merged.push_back(row);
      Relation trial = *out;
      diva::SuppressClustersInPlace(&trial, Clustering{merged});
      size_t new_violations = 0;
      for (size_t v : diva::ViolatedConstraints(trial, constraints)) {
        if (!std::binary_search(before.begin(), before.end(), v)) {
          ++new_violations;
        }
      }
      const size_t cost = diva::SuppressionCost(*out, merged);
      if (new_violations < best_violations ||
          (new_violations == best_violations && cost < best_cost)) {
        best_violations = new_violations;
        best_cost = cost;
        best = c;
      }
    }
    diva::Cluster& target = (*clusters)[best];
    target.push_back(row);
    diva::SuppressClustersInPlace(out, Clustering{target});
  }
}

}  // namespace

Result<Relation> RunLayered(const Relation& relation,
                            const ConstraintSet& constraints,
                            const DivaOptions& options, SpanRecorder* spans,
                            LayerCounts* counts) {
  if (options.deadline_ms > 0 || options.cancel.CanBeCancelled() ||
      options.generalization != nullptr || options.l_diversity > 1 ||
      options.t_closeness < 1.0 || options.portfolio_threads > 1 ||
      options.strict || options.k == 0 || relation.NumRows() < options.k) {
    return Status::InvalidArgument(
        "the layered pipeline covers the benchmark configuration only");
  }
  diva::SetParallelThreads(options.threads);

  diva::ConstraintGraph graph;
  {
    ScopedSpan span(spans, "core.graph_build");
    graph = diva::BuildConstraintGraph(relation, constraints);
  }
  diva::ShardPlan plan;
  {
    ScopedSpan span(spans, "core.shard_plan");
    plan = diva::ComputeShardPlan(graph, relation.NumRows());
  }
  counts->shards = plan.shards.size();
  counts->max_shard_rows = plan.MaxShardRows();

  diva::ColoringOptions coloring_options;
  coloring_options.k = options.k;
  coloring_options.strategy = options.strategy;
  coloring_options.seed = options.seed;
  coloring_options.step_budget = options.coloring_budget;
  coloring_options.enumeration = TuneEnumeration(options);

  // A one-component plan takes the global search and never transposes;
  // the span then times only that decision.
  std::optional<diva::ColumnStore> store;
  {
    ScopedSpan span(spans, "relation.transpose");
    if (plan.Effective()) store.emplace(diva::ColumnStore::FromRelation(relation));
  }
  diva::ColoringOutcome coloring;
  {
    ScopedSpan span(spans, "core.coloring");
    const std::vector<diva::counters::Sample> before =
        diva::counters::Snapshot();
    if (plan.Effective()) {
      const size_t workers =
          options.shard ? diva::ResolveThreadCount(options.threads) : 1;
      DIVA_ASSIGN_OR_RETURN(
          coloring, diva::RunShardedColoring(*store, constraints, graph, plan,
                                             coloring_options, workers));
    } else {
      coloring = diva::ColorConstraints(relation, constraints, graph,
                                        coloring_options);
    }
    const std::vector<diva::counters::Sample> after =
        diva::counters::Snapshot();
    counts->memo_hits = CounterDelta(before, after, "coloring.memo_hits");
    counts->memo_lookups =
        counts->memo_hits + CounterDelta(before, after, "coloring.memo_misses");
    counts->nogood_hits = CounterDelta(before, after, "coloring.nogood_hits");
    counts->nogood_lookups =
        counts->nogood_hits +
        CounterDelta(before, after, "coloring.nogood_misses");
  }
  counts->coloring_steps = coloring.steps;
  counts->backtracks = coloring.backtracks;
  Clustering sigma_clusters = std::move(coloring.chosen_clusters);

  std::optional<Relation> out;
  {
    ScopedSpan span(spans, "relation.copy");
    out.emplace(relation);
  }
  {
    ScopedSpan span(spans, "anon.suppress");
    diva::SuppressClustersInPlace(&*out, sigma_clusters);
  }

  diva::Bitset covered(relation.NumRows());
  for (const diva::Cluster& cluster : sigma_clusters) {
    for (RowId row : cluster) covered.Set(row);
  }
  std::vector<RowId> remaining;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    if (!covered.Test(row)) remaining.push_back(row);
  }
  counts->baseline_rows = remaining.size();

  Clustering rk_clusters;
  std::vector<RowId> leftover;
  {
    ScopedSpan span(spans, "anon.baseline");
    if (remaining.empty()) {
      // Nothing to anonymize.
    } else if (plan.Effective()) {
      DIVA_ASSIGN_OR_RETURN(rk_clusters,
                            ShardedBaseline(relation, covered, remaining, plan,
                                            options, &leftover));
    } else if (remaining.size() >= options.k) {
      std::unique_ptr<diva::Anonymizer> baseline =
          diva::MakeBaselineAnonymizer(options);
      DIVA_ASSIGN_OR_RETURN(
          rk_clusters, baseline->BuildClusters(relation, remaining, options.k));
    } else {
      leftover = remaining;
    }
  }
  if (!rk_clusters.empty()) {
    ScopedSpan span(spans, "anon.suppress");
    diva::SuppressClustersInPlace(&*out, rk_clusters);
  }
  if (!leftover.empty()) {
    ScopedSpan span(spans, "anon.leftover");
    Clustering* host = !sigma_clusters.empty() ? &sigma_clusters
                       : !rk_clusters.empty()  ? &rk_clusters
                                               : nullptr;
    if (host == nullptr) {
      return Status::Infeasible("cannot k-anonymize the leftover rows");
    }
    MergeLeftoverRows(&*out, host, leftover, constraints);
  }
  {
    ScopedSpan span(spans, "core.integrate");
    counts->repair_cells =
        diva::IntegrateRepair(&*out, constraints, rk_clusters).suppressed_cells;
  }
  {
    // SuppressIdentifiers, the violated-constraint scan and the star
    // count RunDiva makes before its audit.
    ScopedSpan span(spans, "core.finalize");
    diva::SuppressIdentifiers(&*out);
    counts->unsatisfied = diva::ViolatedConstraints(*out, constraints);
    uint64_t added_stars = 0;
    for (RowId row = 0; row < out->NumRows(); ++row) {
      for (size_t col = 0; col < out->NumAttributes(); ++col) {
        added_stars += out->At(row, col) == diva::kSuppressed &&
                       relation.At(row, col) != diva::kSuppressed;
      }
    }
    counts->added_stars = added_stars;
  }
  if (options.audit) {
    ScopedSpan span(spans, "verify.audit");
    diva::AuditOptions audit_options;
    audit_options.waived_constraints = counts->unsatisfied;
    DIVA_ASSIGN_OR_RETURN(
        diva::AuditReport audit,
        diva::AuditAnonymization(relation, *out, options.k, constraints,
                                 audit_options));
    if (!audit.ok()) {
      return Status::Internal("layered output failed its audit:\n" +
                              audit.ToString());
    }
  }
  return std::move(*out);
}

uint64_t HashRelation(const Relation& relation) {
  const size_t cols = relation.NumAttributes();
  // Per-column cache of each code's text hash (index code + 1; slot 0
  // is the suppressed marker).
  std::vector<std::vector<uint64_t>> text_hash(cols);
  for (size_t c = 0; c < cols; ++c) {
    const diva::Dictionary& dictionary = relation.dictionary(c);
    text_hash[c].resize(dictionary.size() + 1);
    text_hash[c][0] = Fnv1a("*", 1);
    for (size_t code = 0; code < dictionary.size(); ++code) {
      const std::string& text =
          dictionary.ValueOf(static_cast<diva::ValueCode>(code));
      text_hash[c][code + 1] = Fnv1a(text.data(), text.size());
    }
  }
  uint64_t hash = Fnv1a("", 0);
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t c = 0; c < cols; ++c) {
      const uint64_t cell =
          text_hash[c][static_cast<size_t>(relation.At(row, c) + 1)];
      hash = Fnv1a(&cell, sizeof(cell), hash);
    }
  }
  return hash;
}

uint64_t CounterDelta(const std::vector<diva::counters::Sample>& before,
                      const std::vector<diva::counters::Sample>& after,
                      const char* name) {
  uint64_t from = 0;
  uint64_t to = 0;
  for (const auto& sample : before) {
    if (sample.name == name) from = sample.value;
  }
  for (const auto& sample : after) {
    if (sample.name == name) to = sample.value;
  }
  return to - from;
}

uint64_t ReportCounter(const diva::DivaReport& report, const char* name) {
  for (const auto& sample : report.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

}  // namespace diva_bench
