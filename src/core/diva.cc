#include "core/diva.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
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

/// A row's byte in the pipeline's row marks: kCovered when a cluster
/// holds the row, plus, when the marks carry star masks, its cluster's
/// StarMask.
constexpr uint8_t kCovered = 0x80;
static_assert(kStarMaskColumns < 8, "star masks must fit beside kCovered");

/// True when suppression writes from star masks: plain suppression
/// over a QI projection StarMask can describe.
bool MarksCarryStarMasks(const Relation& relation, const DivaOptions& options) {
  return options.generalization == nullptr &&
         relation.schema().qi_indices().size() <= kStarMaskColumns;
}

/// Marks every row of `clusters` kCovered, with its cluster's star mask
/// when `with_masks`: masks[c] when given for every cluster, else built
/// here in parallel. Marks are set on one thread: clusters of different
/// shards interleave row by row, so writers split by cluster would share
/// cache lines. Returns how many rows were not marked before: fewer than
/// TotalRows(clusters) when the clusters overlap each other or earlier
/// marks.
size_t MarkRows(const Relation& relation, const Clustering& clusters,
                std::vector<uint8_t> masks, bool with_masks,
                std::vector<uint8_t>* marks) {
  if (with_masks && masks.size() != clusters.size()) {
    masks = ParallelMap<uint8_t>(clusters.size(), /*grain=*/0, [&](size_t c) {
      return StarMask(relation, clusters[c]);
    });
  }
  size_t marked = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const uint8_t mark = kCovered | (with_masks ? masks[c] : 0);
    for (RowId row : clusters[c]) {
      marked += (*marks)[row] == 0;
      (*marks)[row] = mark;
    }
  }
  return marked;
}

/// What suppressing the clusters behind `marks` (MarkRows with masks,
/// disjoint clusters) writes into a copy of `relation`, in one streaming
/// pass: each marked row is copied with its mask's columns starred.
/// Adds to *stars the cells it turns into stars and counts the starred
/// cluster cells as suppress.cells, as SuppressClustersInPlace would.
Relation SuppressMarked(const Relation& relation,
                        const std::vector<uint8_t>& marks, uint64_t* stars) {
  const std::vector<size_t>& qi = relation.schema().qi_indices();
  const size_t stride = relation.NumAttributes();
  std::atomic<uint64_t> added{0};
  std::atomic<uint64_t> written{0};
  Relation out = relation.CopyEditing(
      [&](size_t begin, size_t end, std::span<ValueCode> cells) {
        uint64_t local_added = 0;
        uint64_t local_written = 0;
        for (size_t row = begin; row < end; ++row) {
          const uint8_t mask = marks[row] & ~kCovered;
          if (mask == 0) continue;
          ValueCode* row_cells = cells.data() + (row - begin) * stride;
          for (size_t q = 0; q < qi.size(); ++q) {
            if ((mask >> q & 1) == 0) continue;
            ValueCode& cell = row_cells[qi[q]];
            local_added += cell != kSuppressed;
            cell = kSuppressed;
            ++local_written;
          }
        }
        added.fetch_add(local_added, std::memory_order_relaxed);
        written.fetch_add(local_written, std::memory_order_relaxed);
      });
  DIVA_COUNTER_ADD("suppress.cells", written.load());
  *stars += added.load();
  return out;
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

/// The rows in [0, num_rows) that `keep` accepts, ascending. Chunks
/// count their hits, then fill their slices, in parallel.
template <typename Keep>
std::vector<RowId> CollectRows(size_t num_rows, const Keep& keep) {
  const size_t grain = num_rows / 64 + 1;
  const size_t chunks = (num_rows + grain - 1) / grain;
  std::vector<size_t> first = ParallelMap<size_t>(chunks, 1, [&](size_t c) {
    size_t hits = 0;
    const size_t end = std::min(num_rows, (c + 1) * grain);
    for (size_t row = c * grain; row < end; ++row) {
      hits += keep(static_cast<RowId>(row)) ? 1 : 0;
    }
    return hits;
  });
  size_t total = 0;
  for (size_t& slot : first) total += std::exchange(slot, total);
  std::vector<RowId> out(total);
  ParallelFor(chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      size_t next = first[c];
      const size_t end = std::min(num_rows, (c + 1) * grain);
      for (size_t row = c * grain; row < end; ++row) {
        if (keep(static_cast<RowId>(row))) out[next++] = static_cast<RowId>(row);
      }
    }
  });
  return out;
}

/// True when some constraint reads an identifier column, whose cells
/// SuppressIdentifiers blanks.
bool ReadsIdentifiers(const Relation& relation,
                      const ConstraintSet& constraints) {
  for (const DiversityConstraint& constraint : constraints) {
    for (size_t attr : constraint.attribute_indices()) {
      if (relation.schema().attribute(attr).role ==
          AttributeRole::kIdentifier) {
        return true;
      }
    }
  }
  return false;
}

/// The StarMasks `record` holds for its chosen clusters, or with
/// `baseline` for its baseline clusters; empty when it holds none.
std::span<const uint8_t> RecordMasks(const ShardRecord& record,
                                     bool baseline) {
  if (record.star_masks.empty()) return {};
  const std::span<const uint8_t> masks(record.star_masks);
  const size_t chosen = record.outcome.chosen_clusters.size();
  return baseline ? masks.subspan(chosen) : masks.first(chosen);
}

/// The baseline phase, after the shard tasks clustered each shard's
/// uncovered rows (core/shard.h): marks those clusters, mapped to global
/// ids through their shard's rows, then pools every row still unmarked —
/// the residual rows and the uncovered rows of shards left with fewer
/// than k — into one trailing `baseline` call over the whole relation.
/// With fewer than 2 shards no shard task clustered anything, so the
/// pool is every remaining row. A pool still smaller than k is returned
/// in `leftover` for the caller to fold into existing clusters. A
/// deadline that cut any call falls back to the anytime single-pass
/// Mondrian over every row S_Sigma left uncovered. `marks` holds
/// S_Sigma's marks on entry and R_k's as well on return; returns how
/// many rows R_k's clusters marked, which is TotalRows(*rk_clusters)
/// when they are disjoint.
Result<size_t> BuildShardedBaseline(
    const Relation& relation, const ShardPlan& plan,
    const std::vector<std::shared_ptr<const ShardRecord>>& records,
    const ShardBaseline& baseline, const DivaOptions& options, bool masked,
    std::vector<uint8_t>* marks, Clustering* rk_clusters,
    std::vector<RowId>* leftover, DivaReport* report) {
  bool cut = false;
  std::vector<uint8_t> rk_masks;
  for (size_t s = 0; s < records.size(); ++s) {
    const ShardRecord& record = *records[s];
    cut = cut || record.baseline_cut;
    for (const Cluster& cluster : record.baseline) {
      Cluster& global = rk_clusters->emplace_back(cluster.size());
      std::transform(cluster.begin(), cluster.end(), global.begin(),
                     [&](RowId row) { return plan.shards[s].rows[row]; });
    }
    const std::span<const uint8_t> masks = RecordMasks(record, true);
    rk_masks.insert(rk_masks.end(), masks.begin(), masks.end());
  }
  size_t marked =
      MarkRows(relation, *rk_clusters, std::move(rk_masks), masked, marks);
  auto collect_remaining = [&] {
    return CollectRows(relation.NumRows(),
                       [&](RowId row) { return (*marks)[row] == 0; });
  };

  std::vector<RowId> pool;
  if (!cut) pool = collect_remaining();
  if (pool.size() >= options.k) {
    // The pool is never recorded: its membership mixes shards, so cold
    // and incremental runs alike recompute it.
    Result<Clustering> pooled = baseline(relation, pool);
    if (pooled.ok()) {
      marked += MarkRows(relation, *pooled, {}, masked, marks);
      std::move(pooled->begin(), pooled->end(),
                std::back_inserter(*rk_clusters));
    } else if (pooled.status().code() == StatusCode::kDeadlineExceeded) {
      cut = true;
    } else {
      return pooled.status();
    }
  }

  if (cut) {
    if (options.strict) return DeadlineExceededStatus("baseline");
    // Anytime fallback: the single-pass Mondrian always finishes. The
    // shards' clusters sit on rows S_Sigma left uncovered, so unmarking
    // them restores S_Sigma's marks.
    report->baseline_degraded = true;
    for (const Cluster& cluster : *rk_clusters) {
      for (RowId row : cluster) (*marks)[row] = 0;
    }
    std::unique_ptr<Anonymizer> mondrian = MakeMondrian(options.anonymizer);
    DIVA_ASSIGN_OR_RETURN(
        *rk_clusters,
        mondrian->BuildClusters(relation, collect_remaining(), options.k));
    return MarkRows(relation, *rk_clusters, {}, masked, marks);
  }

  if (!pool.empty() && pool.size() < options.k) *leftover = std::move(pool);
  return marked;
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

  // The baseline call: one anonymizer per call, since shard tasks call
  // it concurrently and an anonymizer may keep state between the steps
  // of one call. The token is polled first, so a tripped run starts no
  // baseline.
  DivaOptions baseline_options = options;
  baseline_options.anonymizer.cancel = token;
  const ShardBaseline baseline =
      [&](const Relation& rows_of,
          std::span<const RowId> rows) -> Result<Clustering> {
    if (token.Cancelled()) return DeadlineExceededStatus("baseline");
    return MakeBaselineAnonymizer(baseline_options)
        ->BuildClusters(rows_of, rows, options.k);
  };

  // Phase 1: DiverseClustering — graph construction and coloring (the
  // per-node candidate clusterings are enumerated dynamically inside the
  // search, over the target rows still unclaimed). With two or more
  // shards, each shard's task also runs the baseline on the rows its
  // coloring left uncovered; the records keep both.
  ColoringOutcome coloring;
  std::vector<std::shared_ptr<const ShardRecord>> run_records;
  std::vector<std::shared_ptr<const ShardRecord>>& records =
      hooks.capture != nullptr ? hooks.capture->records : run_records;
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
      DIVA_ASSIGN_OR_RETURN(
          coloring,
          RunShardedColoring(ColumnStore::FromRelation(relation),
                             constraints, *graph, *plan, coloring_options,
                             workers, hooks.adopt.empty() ? nullptr
                                                          : &hooks.adopt,
                             &records, baseline));
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

  if (options.generalization != nullptr &&
      options.generalization->num_attributes() != relation.NumAttributes()) {
    return Status::InvalidArgument(
        "generalization context arity mismatch with the relation");
  }
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("diva.suppress"));
  for (const Cluster& cluster : sigma_clusters) {
    DIVA_HISTOGRAM_RECORD("diva.cluster_size", cluster.size());
  }
  // Phase 2: mark S_Sigma's rows. With plain suppression over a narrow
  // QI projection each mark carries its cluster's star mask, and one
  // streaming pass after the baseline writes every suppression at once;
  // otherwise the clusters are recoded one by one.
  const bool masked = MarksCarryStarMasks(relation, options);
  std::vector<uint8_t> sigma_masks;
  for (const std::shared_ptr<const ShardRecord>& record : records) {
    const std::span<const uint8_t> masks = RecordMasks(*record, false);
    sigma_masks.insert(sigma_masks.end(), masks.begin(), masks.end());
  }
  std::vector<uint8_t> marks(relation.NumRows(), 0);
  bool disjoint = MarkRows(relation, sigma_clusters, std::move(sigma_masks),
                           masked, &marks) == report.sigma_rows;

  // Phase 3: Anonymize the remaining tuples with the baseline. With an
  // effective shard plan the shard tasks already clustered each shard's
  // uncovered rows, which keeps the phase a per-shard pure function —
  // the reuse unit of incremental runs; undersized shards and the
  // residual pool here. Without one, every remaining row is pooled into
  // one call.
  Clustering rk_clusters;
  std::vector<RowId> leftover;
  {
    DIVA_TRACE_SPAN("diva/anonymize");
    PhaseTimer phase_timer(&report.anonymize_seconds);
    DIVA_ASSIGN_OR_RETURN(
        const size_t rk_marked,
        BuildShardedBaseline(relation, *plan, records, baseline, options,
                             masked, &marks, &rk_clusters, &leftover,
                             &report));
    disjoint = disjoint && rk_marked == TotalRows(rk_clusters);
  }

  // Phase 4: Suppress (or generalize) S_Sigma and R_k into the output.
  // `stars` holds the stars added while nothing else has written `out`.
  std::optional<uint64_t> stars;
  Result<Relation> recoded = [&]() -> Result<Relation> {
    DIVA_TRACE_SPAN("diva/suppress");
    if (masked && disjoint) {
      stars = 0;
      return SuppressMarked(relation, marks, &*stars);
    }
    Relation copy = relation;
    DIVA_RETURN_IF_ERROR(Recode(options, &copy, sigma_clusters));
    if (!rk_clusters.empty()) {
      DIVA_RETURN_IF_ERROR(Recode(options, &copy, rk_clusters));
    }
    return copy;
  }();
  if (!recoded.ok()) return recoded.status();
  Relation out = std::move(recoded).value();
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
    stars.reset();
  }

  // Phase 5: Integrate — repair upper bounds breached by R_k. Skipped
  // once the deadline tripped: the unrepaired violations surface in
  // report.unsatisfied below (and are waived for the audit), which is an
  // honest degradation — a half-applied repair would not be. `counts`
  // keeps the repair's occurrence counts of the output.
  std::vector<size_t> counts;
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
      counts = std::move(repair.counts);
    }
  }

  // Optional l-diversity layer: merge output QI-groups until each holds
  // enough distinct sensitive projections (suppression-only; k-anonymity
  // and Sigma's upper bounds survive, lower bounds re-verified below).
  // The deadline token truncates the merge loops; whether the target was
  // actually missed is re-checked afterwards.
  const bool privacy = options.l_diversity > 1 || options.t_closeness < 1.0;
  if (privacy) {
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
  // The repair's counts are the output's unless a later write reached a
  // cell some constraint reads: a privacy merge, or identifier blanking.
  report.unsatisfied =
      !counts.empty() && !privacy && !ReadsIdentifiers(out, constraints)
          ? ViolatedConstraints(counts, constraints)
          : ViolatedConstraints(out, constraints);
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
  // accounting re-derives from the published pair. The suppression
  // pass's own count is that figure when nothing else wrote a cell.
  {
    const bool rewritten = !stars.has_value() ||
                           report.repair_cells > 0 || privacy ||
                           !out.schema().identifier_indices().empty();
    uint64_t added_stars = stars.value_or(0);
    if (rewritten) {
      added_stars = ParallelReduce<uint64_t>(
          out.NumRows(), /*grain=*/0, uint64_t{0},
          [&](size_t begin, size_t end) {
            uint64_t count = 0;
            for (size_t row = begin; row < end; ++row) {
              for (size_t col = 0; col < out.NumAttributes(); ++col) {
                count +=
                    out.At(static_cast<RowId>(row), col) == kSuppressed &&
                    relation.At(static_cast<RowId>(row), col) != kSuppressed;
              }
            }
            return count;
          },
          [](uint64_t a, uint64_t b) { return a + b; });
    }
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
                     snapshot.records.size() == plan->shards.size();
    if (snapshot.valid && graph == &built_graph) {
      snapshot.graph = std::move(built_graph);
    }
    if (snapshot.valid && plan == &built_plan) {
      snapshot.plan = std::move(built_plan);
    }
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
