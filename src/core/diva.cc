#include "core/diva.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
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

/// The baseline phase. With an effective plan, shard s's uncovered rows
/// are clustered over a gathered sub-relation with local ids, the shards
/// concurrently and merged in shard order; shards left with fewer than k
/// uncovered rows pool together
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
/// the capture. `marks` is nonzero on every row of an S_Sigma cluster;
/// the `num_remaining` others are listed only when a pool or the
/// fallback needs them. `rk_masks` receives each cluster's StarMask
/// when the calls read them off their gathered rows (the fallback does
/// not).
Status BuildShardedBaseline(const Relation& relation,
                            const std::vector<uint8_t>& marks,
                            size_t num_remaining,
                            const ShardPlan& plan, const DivaOptions& options,
                            const CancellationToken& token,
                            const PipelineHooks& hooks, Clustering* rk_clusters,
                            std::vector<uint8_t>* rk_masks,
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
      // Stores through a cursor, not push_back: these loops are hot.
      std::vector<RowId>& rows = uncovered[s];
      rows.resize(plan.shards[s].rows.size());
      RowId* next = rows.data();
      for (RowId row : plan.shards[s].rows) {
        *next = row;
        next += marks[row] == 0;
      }
      rows.resize(static_cast<size_t>(next - rows.data()));
      const ShardBaselineRecord* record = adoptable(s);
      if (rows.size() < options.k || record == nullptr) continue;
      adopted[s].reserve(record->clusters.size());
      for (const Cluster& cluster : record->clusters) {
        Cluster& global = adopted[s].emplace_back(cluster.size());
        std::transform(cluster.begin(), cluster.end(), global.begin(),
                       [&](RowId row) { return rows[row]; });
      }
    }
  });
  // The pool: residual (untargeted) remaining rows plus every
  // undersized shard's uncovered rows, in ascending row order. It is
  // empty when the shards' own calls take every remaining row.
  size_t own_rows = 0;
  for (const std::vector<RowId>& rows : uncovered) {
    if (rows.size() >= options.k) own_rows += rows.size();
  }
  auto collect_remaining = [&] {
    return CollectRows(relation.NumRows(),
                       [&](RowId row) { return marks[row] == 0; });
  };
  std::vector<RowId> pool;
  if (num_shards == 0) {
    pool = collect_remaining();
  } else if (own_rows < num_remaining) {
    // A flag on each uncovered row of a shard that clusters on its own.
    // Set on one thread: shards interleave row by row, so writers split
    // by shard would share every cache line of the flags.
    std::vector<uint8_t> own_baseline(relation.NumRows(), 0);
    for (const std::vector<RowId>& rows : uncovered) {
      if (rows.size() < options.k) continue;  // empty or pooled
      for (RowId row : rows) own_baseline[row] = 1;
    }
    pool = CollectRows(relation.NumRows(), [&](RowId row) {
      return marks[row] == 0 && own_baseline[row] == 0;
    });
  }

  std::vector<std::shared_ptr<const ShardBaselineRecord>>* capture =
      hooks.capture != nullptr ? &hooks.capture->baseline : nullptr;
  if (capture != nullptr) capture->assign(num_shards, nullptr);

  DivaOptions baseline_options = options;
  baseline_options.anonymizer.cancel = token;
  const bool masked = MarksCarryStarMasks(relation, options);
  // Clusters `rows` into `built` in local ids, with their star masks,
  // read off the gathered rows while they are hot. One anonymizer per
  // call: calls run concurrently, and an anonymizer may keep state
  // between the steps of one call. The token is polled before the rows
  // are copied, so a tripped run gathers nothing.
  auto build_local = [&](const std::vector<RowId>& rows,
                         ShardBaselineRecord* built) -> Status {
    if (token.Cancelled()) return DeadlineExceededStatus("baseline");
    Relation sub = relation.SelectRows(rows);
    std::vector<RowId> local(rows.size());
    for (size_t i = 0; i < local.size(); ++i) local[i] = static_cast<RowId>(i);
    DIVA_ASSIGN_OR_RETURN(built->clusters,
                          MakeBaselineAnonymizer(baseline_options)
                              ->BuildClusters(sub, local, options.k));
    if (masked) {
      for (const Cluster& cluster : built->clusters) {
        built->star_masks.push_back(StarMask(sub, cluster));
      }
    }
    return Status::OK();
  };
  // Appends `built`'s clusters mapped through `rows` to global ids.
  Clustering built_all;
  auto take = [&](const ShardBaselineRecord& built,
                  const std::vector<RowId>& rows) {
    for (const Cluster& cluster : built.clusters) {
      Cluster& global = built_all.emplace_back(cluster.size());
      std::transform(cluster.begin(), cluster.end(), global.begin(),
                     [&](RowId row) { return rows[row]; });
    }
    rk_masks->insert(rk_masks->end(), built.star_masks.begin(),
                     built.star_masks.end());
  };

  // Every live shard's call is one TaskGroup item, like the coloring,
  // with its counters buffered into its record; results, counter replays
  // and the first error merge in shard order below, so the merge is the
  // same at every width. With 0 workers Wait runs the items inline.
  std::vector<Status> statuses(num_shards, Status::OK());
  std::vector<std::shared_ptr<ShardBaselineRecord>> records(num_shards);
  std::vector<size_t> live;
  for (size_t s = 0; s < num_shards; ++s) {
    if (uncovered[s].size() >= options.k && adoptable(s) == nullptr) {
      live.push_back(s);
    }
  }
  {
    const size_t workers =
        options.shard ? ResolveThreadCount(options.threads) : 1;
    TaskGroup group(workers > 1 ? std::min(workers, live.size()) : 0);
    std::vector<uint64_t> tickets;
    tickets.reserve(live.size());
    for (size_t s : live) {
      tickets.push_back(group.Submit([&, s] {
        records[s] = std::make_shared<ShardBaselineRecord>();
        counters::ScopedBufferedCounters buffered(&records[s]->telemetry);
        statuses[s] = build_local(uncovered[s], records[s].get());
      }));
    }
    for (uint64_t ticket : tickets) group.Wait(ticket);
  }

  Status deadline_status = Status::OK();
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
      rk_masks->insert(rk_masks->end(), record->star_masks.begin(),
                       record->star_masks.end());
      continue;
    }
    if (!statuses[s].ok()) {
      if (statuses[s].code() != StatusCode::kDeadlineExceeded) {
        return statuses[s];
      }
      deadline_status = statuses[s];
      break;
    }
    // Replay a copy: the record keeps the uncommitted op sequence.
    counters::Buffer replay = records[s]->telemetry;
    replay.Commit();
    take(*records[s], rows);
    if (capture != nullptr) (*capture)[s] = std::move(records[s]);
  }

  if (deadline_status.ok() && pool.size() >= options.k) {
    // The pool is never adopted: its membership mixes shards, so it is
    // recomputed by cold and incremental runs alike.
    ShardBaselineRecord built;
    deadline_status = build_local(pool, &built);
    if (deadline_status.ok()) {
      take(built, pool);
    } else if (deadline_status.code() != StatusCode::kDeadlineExceeded) {
      return deadline_status;
    }
  }

  if (!deadline_status.ok()) {
    if (options.strict) return deadline_status;
    // Anytime fallback: the single-pass Mondrian always finishes.
    report->baseline_degraded = true;
    if (capture != nullptr) capture->clear();
    rk_masks->clear();
    std::unique_ptr<Anonymizer> mondrian = MakeMondrian(options.anonymizer);
    DIVA_ASSIGN_OR_RETURN(
        *rk_clusters,
        mondrian->BuildClusters(relation, collect_remaining(), options.k));
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
  std::vector<uint8_t> marks(relation.NumRows(), 0);
  const size_t covered_rows =
      MarkRows(relation, sigma_clusters, std::move(coloring.star_masks),
               masked, &marks);
  bool disjoint = covered_rows == report.sigma_rows;

  // Phase 3: Anonymize the remaining tuples with the baseline. With an
  // effective shard plan the baseline runs per component (uncovered rows
  // of each shard clustered independently, undersized shards and the
  // residual pooled), which keeps the phase a per-shard pure function —
  // the reuse unit of incremental runs. Without one, every remaining row
  // is pooled into one call.
  Clustering rk_clusters;
  std::vector<uint8_t> rk_masks;
  std::vector<RowId> leftover;
  {
    DIVA_TRACE_SPAN("diva/anonymize");
    PhaseTimer phase_timer(&report.anonymize_seconds);
    DIVA_RETURN_IF_ERROR(BuildShardedBaseline(
        relation, marks, relation.NumRows() - covered_rows, *plan, options,
        token, hooks, &rk_clusters, &rk_masks, &leftover, &report));
    disjoint = MarkRows(relation, rk_clusters, std::move(rk_masks), masked,
                        &marks) == TotalRows(rk_clusters) &&
               disjoint;
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
                     snapshot.coloring.size() == plan->shards.size();
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
