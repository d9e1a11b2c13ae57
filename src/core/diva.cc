#include "core/diva.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "anon/privacy.h"
#include "anon/suppress.h"
#include "common/counters.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/constraint_graph.h"
#include "core/incremental.h"
#include "core/integrate.h"
#include "core/shard.h"
#include "relation/columnar.h"
#include "verify/auditor.h"

namespace diva {

const char* BaselineAlgorithmToString(BaselineAlgorithm baseline) {
  switch (baseline) {
    case BaselineAlgorithm::kKMember:
      return "k-member";
    case BaselineAlgorithm::kOka:
      return "OKA";
    case BaselineAlgorithm::kMondrian:
      return "Mondrian";
  }
  return "unknown";
}

std::unique_ptr<Anonymizer> MakeBaselineAnonymizer(
    const DivaOptions& options) {
  switch (options.baseline) {
    case BaselineAlgorithm::kKMember:
      return MakeKMember(options.anonymizer);
    case BaselineAlgorithm::kOka:
      return MakeOka(options.anonymizer);
    case BaselineAlgorithm::kMondrian:
      return MakeMondrian(options.anonymizer);
  }
  return MakeKMember(options.anonymizer);
}

namespace {

/// Applies the configured recoding operator: LCA generalization when
/// taxonomies were provided, plain suppression otherwise.
Status Recode(const DivaOptions& options, Relation* out,
              const Clustering& clustering) {
  if (options.generalization != nullptr) {
    return GeneralizeClustersInPlace(out, clustering,
                                     *options.generalization);
  }
  SuppressClustersInPlace(out, clustering);
  return Status::OK();
}

ClusteringEnumOptions TuneEnumeration(const DivaOptions& options) {
  ClusteringEnumOptions enumeration = options.enumeration;
  if (!options.auto_tune_enumeration) return enumeration;
  enumeration.seed = options.seed;
  if (options.strategy == SelectionStrategy::kBasic) {
    // The unordered, oversized pool of DIVA-Basic: candidates are tried
    // in random order, so bad early picks trigger deep backtracking.
    enumeration.ordered = false;
    enumeration.max_clusterings = 256;
    enumeration.max_window_candidates = 48;
    enumeration.random_subsets = 32;
  } else {
    enumeration.ordered = true;
  }
  return enumeration;
}

/// The row ids at(i), i in [0, count), that `keep` accepts, in index
/// order. Chunks count their hits, then fill their slices, in parallel.
template <typename At, typename Keep>
std::vector<RowId> CollectRows(size_t count, const At& at, const Keep& keep) {
  const size_t grain = count / 64 + 1;
  const size_t chunks = (count + grain - 1) / grain;
  std::vector<size_t> first = ParallelMap<size_t>(chunks, 1, [&](size_t c) {
    size_t hits = 0;
    const size_t end = std::min(count, (c + 1) * grain);
    for (size_t i = c * grain; i < end; ++i) hits += keep(at(i)) ? 1 : 0;
    return hits;
  });
  size_t total = 0;
  for (size_t& slot : first) total += std::exchange(slot, total);
  std::vector<RowId> out(total);
  ParallelFor(chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      size_t next = first[c];
      const size_t end = std::min(count, (c + 1) * grain);
      for (size_t i = c * grain; i < end; ++i) {
        const RowId row = at(i);
        if (keep(row)) out[next++] = row;
      }
    }
  });
  return out;
}

/// The baseline phase. With an effective plan, shard s's uncovered rows
/// are clustered over a gathered sub-relation with local ids, in shard
/// order; shards left with fewer than k uncovered rows pool together
/// with the residual rows into one trailing baseline run. A plan with
/// fewer than 2 shards pools every remaining row. A pool still smaller
/// than k is returned in `leftover` for the caller to fold into existing
/// clusters. Each shard's clustering is a pure function of its uncovered
/// contents, so clean shards adopt prior records (telemetry replayed at
/// the same shard-order slot) and the merged result is byte-identical at
/// every thread width and with reuse on or off. The baselines depend
/// only on row positions, so a gathered call clusters exactly as an
/// in-place one would. A deadline hitting any call falls back to the
/// anytime single-pass Mondrian over all remaining rows and invalidates
/// the capture. `covered` flags every row of an S_Sigma cluster;
/// `remaining` lists the others, ascending.
Status BuildShardedBaseline(const Relation& relation,
                            const std::vector<uint8_t>& covered,
                            const std::vector<RowId>& remaining,
                            const ShardPlan& plan, const DivaOptions& options,
                            const CancellationToken& token,
                            const PipelineHooks& hooks, Clustering* rk_clusters,
                            std::vector<RowId>* leftover, DivaReport* report) {
  const size_t num_shards = plan.Effective() ? plan.shards.size() : 0;
  auto adoptable = [&](size_t s) -> const ShardBaselineRecord* {
    return s < hooks.adopt_baseline.size() ? hooks.adopt_baseline[s].get()
                                           : nullptr;
  };
  // Per shard, in parallel: its uncovered rows (ascending) and an
  // adopted record's clusters remapped to global ids.
  std::vector<std::vector<RowId>> uncovered(num_shards);
  std::vector<Clustering> adopted(num_shards);
  ParallelFor(num_shards, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      std::vector<RowId>& rows = uncovered[s];
      for (RowId row : plan.shards[s].rows) {
        if (!covered[row]) rows.push_back(row);
      }
      const ShardBaselineRecord* record = adoptable(s);
      if (rows.size() < options.k || record == nullptr) continue;
      adopted[s].reserve(record->clusters.size());
      for (const Cluster& cluster : record->clusters) {
        Cluster& global = adopted[s].emplace_back();
        global.reserve(cluster.size());
        for (RowId row : cluster) {
          global.push_back(rows[static_cast<size_t>(row)]);
        }
      }
    }
  });
  // A flag on each uncovered row of a shard that clusters on its own.
  // Set on one thread: shards interleave row by row, so writers split by
  // shard would share every cache line of the flags.
  std::vector<uint8_t> own_baseline(num_shards > 0 ? relation.NumRows() : 0, 0);
  for (const std::vector<RowId>& rows : uncovered) {
    if (rows.size() < options.k) continue;  // empty or pooled
    for (RowId row : rows) own_baseline[row] = 1;
  }
  // The pool: residual (untargeted) remaining rows plus every
  // undersized shard's uncovered rows, in ascending row order.
  std::vector<RowId> pool =
      num_shards == 0
          ? remaining
          : CollectRows(
                remaining.size(), [&](size_t i) { return remaining[i]; },
                [&](RowId row) { return own_baseline[row] == 0; });

  std::vector<std::shared_ptr<const ShardBaselineRecord>>* capture =
      hooks.capture != nullptr ? &hooks.capture->baseline : nullptr;
  if (capture != nullptr) capture->assign(num_shards, nullptr);

  DivaOptions baseline_options = options;
  baseline_options.anonymizer.cancel = token;
  std::unique_ptr<Anonymizer> baseline =
      MakeBaselineAnonymizer(baseline_options);

  auto build_local = [&](const std::vector<RowId>& rows) -> Result<Clustering> {
    Relation sub = relation.SelectRows(rows);
    std::vector<RowId> local(rows.size());
    for (size_t i = 0; i < local.size(); ++i) local[i] = static_cast<RowId>(i);
    return baseline->BuildClusters(sub, local, options.k);
  };

  Status deadline_status = Status::OK();
  Clustering built_all;
  for (size_t s = 0; s < num_shards && deadline_status.ok(); ++s) {
    const std::vector<RowId>& rows = uncovered[s];
    if (rows.size() < options.k) continue;  // empty or pooled above
    if (const ShardBaselineRecord* record = adoptable(s)) {
      // Clean shard: replay the recorded counter ops at this slot and
      // take its clusters, remapped above through the current uncovered
      // list.
      if (capture != nullptr) (*capture)[s] = hooks.adopt_baseline[s];
      counters::Buffer replay = record->telemetry;
      replay.Commit();
      std::move(adopted[s].begin(), adopted[s].end(),
                std::back_inserter(built_all));
      continue;
    }
    auto record = std::make_shared<ShardBaselineRecord>();
    Result<Clustering> built = [&]() -> Result<Clustering> {
      counters::ScopedBufferedCounters buffered(&record->telemetry);
      return build_local(rows);
    }();
    if (!built.ok()) {
      if (built.status().code() != StatusCode::kDeadlineExceeded) {
        return built.status();
      }
      deadline_status = built.status();
      break;
    }
    Clustering local_clusters = std::move(built).value();
    // Replay a copy: the record keeps the uncommitted op sequence.
    counters::Buffer replay = record->telemetry;
    replay.Commit();
    if (capture != nullptr) {
      record->clusters = local_clusters;
      (*capture)[s] = std::move(record);
    }
    for (Cluster& cluster : local_clusters) {
      for (RowId& row : cluster) row = rows[static_cast<size_t>(row)];
      built_all.push_back(std::move(cluster));
    }
  }

  if (deadline_status.ok() && pool.size() >= options.k) {
    // The pool is never adopted: its membership mixes shards, so it is
    // recomputed by cold and incremental runs alike.
    Result<Clustering> built = build_local(pool);
    if (!built.ok()) {
      if (built.status().code() != StatusCode::kDeadlineExceeded) {
        return built.status();
      }
      deadline_status = built.status();
    } else {
      for (Cluster& cluster : std::move(built).value()) {
        for (RowId& row : cluster) row = pool[static_cast<size_t>(row)];
        built_all.push_back(std::move(cluster));
      }
    }
  }

  if (!deadline_status.ok()) {
    if (options.strict) return deadline_status;
    // Anytime fallback: the single-pass Mondrian always finishes.
    report->baseline_degraded = true;
    if (capture != nullptr) capture->clear();
    std::unique_ptr<Anonymizer> mondrian = MakeMondrian(options.anonymizer);
    DIVA_ASSIGN_OR_RETURN(
        *rk_clusters, mondrian->BuildClusters(relation, remaining, options.k));
    return Status::OK();
  }

  if (pool.size() < options.k && !pool.empty()) *leftover = std::move(pool);
  *rk_clusters = std::move(built_all);
  return Status::OK();
}

}  // namespace

Result<DivaResult> RunDivaPipeline(const Relation& relation,
                                   const ConstraintSet& constraints,
                                   const DivaOptions& options,
                                   const PipelineHooks& hooks) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (relation.NumRows() > 0 && relation.NumRows() < options.k) {
    return Status::Infeasible("relation has fewer than k tuples");
  }

  StopWatch total_watch;
  DIVA_TRACE_SPAN("diva/run");
  // The report carries this run's counter *delta*; concurrent RunDiva
  // calls in one process would blend into each other's deltas (the
  // registry is process-wide), so deltas are meaningful for the common
  // one-run-at-a-time case.
  const std::vector<counters::Sample> counters_before =
      counters::Snapshot();
  DivaReport report;
  report.total_constraints = constraints.size();

  // The run's wall budget: one token shared by every phase. A null token
  // (no deadline, no external cancel) never trips and costs one pointer
  // test per poll. An external options.cancel composes as the parent, so
  // either signal degrades the run — and we never trip the caller's own
  // token.
  const CancellationToken token =
      options.deadline_ms > 0
          ? CancellationToken::WithDeadlineAndParent(
                Deadline::AfterMillis(options.deadline_ms), options.cancel)
          : (options.cancel.CanBeCancelled()
                 ? CancellationToken::WithDeadlineAndParent(
                       Deadline::Infinite(), options.cancel)
                 : CancellationToken());

  // Configure the process-global pool before the first hot loop runs.
  // Every parallel algorithm downstream is bit-identical across widths,
  // so this only decides speed, never output.
  SetParallelThreads(options.threads);

  // Phase 1: DiverseClustering — graph construction and coloring (the
  // per-node candidate clusterings are enumerated dynamically inside the
  // search, over the target rows still unclaimed).
  ColoringOutcome coloring;
  ConstraintGraph built_graph;
  const ConstraintGraph* graph = hooks.graph;
  ShardPlan built_plan;
  const ShardPlan* plan = hooks.plan;
  {
    DIVA_TRACE_SPAN("diva/clustering");
    PhaseTimer phase_timer(&report.clustering_seconds);
    if (graph == nullptr) {
      DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.graph.build"));
      built_graph = BuildConstraintGraph(relation, constraints);
      graph = &built_graph;
    }

    for (size_t i = 0; i < constraints.size(); ++i) {
      // Static infeasibility: a lower bound can only be met by clusters of
      // >= k target tuples, so it needs lambda_l <= |I_sigma| and
      // max(k, lambda_l) <= lambda_r.
      const DiversityConstraint& constraint = constraints[i];
      bool feasible =
          constraint.lower() == 0 ||
          (constraint.lower() <= graph->targets[i].size() &&
           std::max<size_t>(options.k, constraint.lower()) <=
               constraint.upper());
      if (!feasible && options.strict) {
        return Status::Infeasible(
            "no diverse k-anonymous relation exists: constraint '" +
            constraint.ToString() + "' admits no clustering for k = " +
            std::to_string(options.k));
      }
    }

    DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.coloring.begin"));
    ColoringOptions coloring_options;
    coloring_options.k = options.k;
    coloring_options.strategy = options.strategy;
    coloring_options.seed = options.seed;
    coloring_options.step_budget = options.coloring_budget;
    coloring_options.enumeration = TuneEnumeration(options);
    coloring_options.deadline = token;

    // The component partition of the conflict graph (core/shard.h), a
    // pure function of the instance: every deterministic run colors
    // through it.
    if (plan == nullptr) {
      DIVA_RETURN_IF_ERROR(DIVA_FAIL("shard.partition"));
      built_plan = ComputeShardPlan(*graph, relation.NumRows());
      plan = &built_plan;
    }
    report.shards = plan->shards.size();
    report.residual_rows = plan->residual_rows;
    DIVA_COUNTER_ADD("shard.count", plan->shards.size());
    DIVA_COUNTER_ADD("shard.max_rows", plan->MaxShardRows());
    DIVA_COUNTER_ADD("shard.residual_rows", plan->residual_rows);

    if (options.portfolio_threads > 1 && !plan->Effective()) {
      // The opt-in portfolio races seeded whole-instance searches; which
      // complete coloring wins may vary, so such a run never captures.
      coloring = ColorConstraintsPortfolio(relation, constraints, *graph,
                                           coloring_options,
                                           options.portfolio_threads);
    } else {
      // The plan drives the search whatever its shard count;
      // options.shard only picks concurrent vs inline execution.
      const size_t workers =
          options.shard ? ResolveThreadCount(options.threads) : 1;
      const auto* adopt =
          hooks.adopt_coloring.empty() ? nullptr : &hooks.adopt_coloring;
      auto* capture_coloring =
          hooks.capture != nullptr ? &hooks.capture->coloring : nullptr;
      DIVA_ASSIGN_OR_RETURN(
          coloring,
          RunShardedColoring(ColumnStore::FromRelation(relation),
                             constraints, *graph, *plan,
                             coloring_options, workers, adopt,
                             capture_coloring));
    }
  }
  report.clustering_complete = coloring.complete;
  report.budget_exhausted = coloring.budget_exhausted;
  report.colored_constraints = coloring.NumColored();
  report.coloring_steps = coloring.steps;
  report.backtracks = coloring.backtracks;
  DIVA_COUNTER_ADD("coloring.steps", coloring.steps);
  DIVA_COUNTER_ADD("coloring.backtracks", coloring.backtracks);

  if (!coloring.complete && options.strict) {
    if (token.Cancelled()) return DeadlineExceededStatus("clustering");
    return Status::Infeasible(
        "no diverse k-anonymous relation exists: coloring satisfied " +
        std::to_string(report.colored_constraints) + "/" +
        std::to_string(constraints.size()) + " constraints");
  }

  Clustering sigma_clusters = std::move(coloring.chosen_clusters);
  report.sigma_rows = TotalRows(sigma_clusters);

  // Phase 2: Suppress (or generalize) S_Sigma inside a working copy of R.
  if (options.generalization != nullptr &&
      options.generalization->num_attributes() != relation.NumAttributes()) {
    return Status::InvalidArgument(
        "generalization context arity mismatch with the relation");
  }
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.suppress"));
  Relation out = relation;
  {
    DIVA_TRACE_SPAN("diva/suppress");
    DIVA_RETURN_IF_ERROR(Recode(options, &out, sigma_clusters));
  }
  for (const Cluster& cluster : sigma_clusters) {
    DIVA_HISTOGRAM_RECORD("diva.cluster_size", cluster.size());
  }

  // Phase 3: Anonymize the remaining tuples with the baseline. With an
  // effective shard plan the baseline runs per component (uncovered rows
  // of each shard clustered independently, undersized shards and the
  // residual pooled), which keeps the phase a per-shard pure function —
  // the reuse unit of incremental runs. Without one, every remaining row
  // is pooled into one call.
  Clustering rk_clusters;
  {
    DIVA_TRACE_SPAN("diva/anonymize");
    PhaseTimer phase_timer(&report.anonymize_seconds);
    // Flags set on one thread: clusters of different shards interleave
    // row by row, so writers split by cluster would share cache lines.
    // The scan for the rest runs in parallel.
    std::vector<uint8_t> covered(relation.NumRows(), 0);
    for (const Cluster& cluster : sigma_clusters) {
      for (RowId row : cluster) covered[row] = 1;
    }
    const std::vector<RowId> remaining = CollectRows(
        relation.NumRows(), [](size_t i) { return static_cast<RowId>(i); },
        [&](RowId row) { return covered[row] == 0; });

    std::vector<RowId> leftover;
    DIVA_RETURN_IF_ERROR(BuildShardedBaseline(relation, covered, remaining,
                                              *plan, options, token, hooks,
                                              &rk_clusters, &leftover,
                                              &report));

    if (!rk_clusters.empty()) {
      DIVA_RETURN_IF_ERROR(Recode(options, &out, rk_clusters));
    }
    if (!leftover.empty()) {
      // Fewer than k stragglers: fold them into the cheapest existing
      // cluster (there must be one, or the relation itself had < k rows,
      // rejected above — unless S_Sigma is empty too).
      Clustering* host = !sigma_clusters.empty()   ? &sigma_clusters
                         : !rk_clusters.empty()    ? &rk_clusters
                                                   : nullptr;
      if (host == nullptr) {
        return Status::Infeasible(
            "cannot k-anonymize " + std::to_string(leftover.size()) +
            " tuples with k = " + std::to_string(options.k));
      }
      FoldLeftoverRows(&out, host, leftover, constraints);
    }
  }

  // Phase 4: Integrate — repair upper bounds breached by R_k. Skipped
  // once the deadline tripped: the unrepaired violations surface in
  // report.unsatisfied below (and are waived for the audit), which is an
  // honest degradation — a half-applied repair would not be.
  {
    DIVA_TRACE_SPAN("diva/integrate");
    PhaseTimer phase_timer(&report.integrate_seconds);
    DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.integrate"));
    if (token.Cancelled()) {
      if (options.strict) return DeadlineExceededStatus("integrate");
      report.integrate_skipped = true;
    } else {
      IntegrateStats repair = IntegrateRepair(&out, constraints, rk_clusters);
      report.repair_cells = repair.suppressed_cells;
    }
  }

  // Optional l-diversity layer: merge output QI-groups until each holds
  // enough distinct sensitive projections (suppression-only; k-anonymity
  // and Sigma's upper bounds survive, lower bounds re-verified below).
  // The deadline token truncates the merge loops; whether the target was
  // actually missed is re-checked afterwards.
  if (options.l_diversity > 1 || options.t_closeness < 1.0) {
    DIVA_TRACE_SPAN("diva/privacy");
    Clustering all_clusters = sigma_clusters;
    all_clusters.insert(all_clusters.end(), rk_clusters.begin(),
                        rk_clusters.end());
    if (options.l_diversity > 1) {
      DIVA_ASSIGN_OR_RETURN(
          all_clusters, EnforceLDiversity(&out, std::move(all_clusters),
                                          options.l_diversity, token));
      if (token.Cancelled() &&
          !IsDistinctLDiverse(out, options.l_diversity)) {
        if (options.strict) return DeadlineExceededStatus("l-diversity");
        report.privacy_truncated = true;
      }
    }
    if (options.t_closeness < 1.0) {
      DIVA_RETURN_IF_ERROR(EnforceTCloseness(&out, std::move(all_clusters),
                                             options.t_closeness, token));
      if (token.Cancelled() && !IsTClose(out, options.t_closeness)) {
        if (options.strict) return DeadlineExceededStatus("t-closeness");
        report.privacy_truncated = true;
      }
    }
  }

  SuppressIdentifiers(&out);
  report.unsatisfied = ViolatedConstraints(out, constraints);
  if (!report.unsatisfied.empty() && options.strict) {
    return Status::Infeasible(
        "output violates " + std::to_string(report.unsatisfied.size()) +
        " constraint(s) after integration");
  }

  report.deadline_exceeded = token.Cancelled();

  // The published stars, counted exactly once against the input: cells
  // suppressed in `out` that were not suppressed in `relation`. Counting
  // here — rather than inside SuppressClustersInPlace, which rewrites
  // cells already suppressed (leftover folds, privacy merges) and would
  // overcount — keeps the figure equal to what the auditor's star
  // accounting re-derives from the published pair.
  {
    const uint64_t added_stars = ParallelReduce<uint64_t>(
        out.NumRows(), /*grain=*/0, uint64_t{0},
        [&](size_t begin, size_t end) {
          uint64_t stars = 0;
          for (size_t row = begin; row < end; ++row) {
            for (size_t col = 0; col < out.NumAttributes(); ++col) {
              stars += out.At(static_cast<RowId>(row), col) == kSuppressed &&
                       relation.At(static_cast<RowId>(row), col) != kSuppressed;
            }
          }
          return stars;
        },
        [](uint64_t a, uint64_t b) { return a + b; });
    DIVA_COUNTER_ADD("suppress.stars", added_stars);
  }

  // The self-audit is NEVER skipped on deadline expiry: a degraded
  // output must still prove it is k-anonymous and suppression-only.
  if (options.audit) {
    DIVA_TRACE_SPAN("diva/audit");
    PhaseTimer phase_timer(&report.audit_seconds);
    AuditOptions audit_options;
    audit_options.waived_constraints = report.unsatisfied;
    audit_options.generalization = options.generalization;
    DIVA_ASSIGN_OR_RETURN(
        AuditReport audit,
        AuditAnonymization(relation, out, options.k, constraints,
                           audit_options));
    if (!audit.ok()) {
      return Status::Internal("output failed its self-audit:\n" +
                              audit.ToString());
    }
    report.audited = true;
  }

  DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.publish"));

  // Reuse capture: only an undegraded, suppression-recoded run whose
  // plan recorded every shard's coloring (the portfolio records none) is
  // a sound adoption source. The caller finishes the snapshot (relation,
  // constraints, options fingerprint) via FinalizeSnapshot.
  if (hooks.capture != nullptr) {
    PipelineSnapshot& snapshot = *hooks.capture;
    snapshot.valid = options.generalization == nullptr &&
                     !report.deadline_exceeded && !report.baseline_degraded &&
                     !report.integrate_skipped && !report.privacy_truncated &&
                     snapshot.coloring.size() == plan->shards.size();
    if (snapshot.valid) snapshot.plan = *plan;
  }

  report.counters = counters::Delta(counters_before, counters::Snapshot());
  report.total_seconds = total_watch.ElapsedSeconds();
  return DivaResult{std::move(out), std::move(report), nullptr};
}

Result<DivaResult> RunDiva(const Relation& relation,
                           const ConstraintSet& constraints,
                           const DivaOptions& options) {
  if (!options.incremental) {
    return RunDivaPipeline(relation, constraints, options, PipelineHooks{});
  }
  auto snapshot = std::make_shared<PipelineSnapshot>();
  PipelineHooks hooks;
  hooks.capture = snapshot.get();
  DIVA_ASSIGN_OR_RETURN(
      DivaResult result,
      RunDivaPipeline(relation, constraints, options, hooks));
  if (snapshot->valid) {
    FinalizeSnapshot(snapshot.get(), relation, constraints, options);
    result.snapshot = std::move(snapshot);
  }
  return result;
}

}  // namespace diva
