#include "core/clusterings.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

std::vector<RowId> SortByQiSimilarity(const Relation& relation,
                                      const std::vector<RowId>& targets) {
  const auto& qi = relation.schema().qi_indices();
  // Each column's field is wide enough for its largest code + 1 (a ★,
  // code -1, packs as 0, below every value), so comparing packed keys,
  // first column in the top bits, compares the columns in order.
  const std::vector<ValueCode> widest = ParallelReduce<std::vector<ValueCode>>(
      targets.size(), /*grain=*/0, std::vector<ValueCode>(qi.size(), kSuppressed),
      [&](size_t begin, size_t end) {
        std::vector<ValueCode> most(qi.size(), kSuppressed);
        for (size_t i = begin; i < end; ++i) {
          for (size_t c = 0; c < qi.size(); ++c) {
            most[c] = std::max(most[c], relation.At(targets[i], qi[c]));
          }
        }
        return most;
      },
      [](std::vector<ValueCode> a, const std::vector<ValueCode>& b) {
        for (size_t c = 0; c < a.size(); ++c) a[c] = std::max(a[c], b[c]);
        return a;
      });
  std::vector<int> bits(qi.size());
  int total_bits = 0;
  for (size_t c = 0; c < qi.size(); ++c) {
    bits[c] = std::bit_width(static_cast<uint64_t>(widest[c]) + 1);
    total_bits += bits[c];
  }

  std::vector<RowId> sorted = targets;
  if (total_bits > 64) {
    std::stable_sort(sorted.begin(), sorted.end(), [&](RowId a, RowId b) {
      for (size_t col : qi) {
        ValueCode ca = relation.At(a, col);
        ValueCode cb = relation.At(b, col);
        if (ca != cb) return ca < cb;
      }
      return a < b;
    });
    return sorted;
  }
  struct Keyed {
    uint64_t key;
    RowId row;
  };
  std::vector<Keyed> keyed(targets.size());
  ParallelFor(targets.size(), /*grain=*/0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      uint64_t key = 0;
      for (size_t c = 0; c < qi.size(); ++c) {
        key = (key << bits[c]) |
              static_cast<uint64_t>(relation.At(targets[i], qi[c]) + 1);
      }
      keyed[i] = {key, targets[i]};
    }
  });
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.row < b.row;
  });
  for (size_t i = 0; i < keyed.size(); ++i) sorted[i] = keyed[i].row;
  return sorted;
}

std::vector<RowId> SubsetInOrder(std::span<const RowId> order,
                                 std::vector<uint32_t> positions) {
  const size_t m = positions.size();
  std::vector<RowId> subset;
  subset.reserve(m);
  if (m * static_cast<size_t>(std::bit_width(m) - 1) > order.size()) {
    std::vector<uint8_t> marked(order.size(), 0);
    for (uint32_t position : positions) marked[position] = 1;
    for (size_t i = 0; i < order.size(); ++i) {
      if (marked[i]) subset.push_back(order[i]);
    }
    return subset;
  }
  std::sort(positions.begin(), positions.end());
  for (uint32_t position : positions) subset.push_back(order[position]);
  return subset;
}

namespace {

/// How many preserved-count values m the ladder steps through, starting
/// at max(k, min_preserve) and stepping by k (the largest admissible m
/// is appended after them).
constexpr size_t kPreservedSteps = 3;

/// True when rows a and b agree on every quasi-identifier attribute.
bool SameQiProjection(const Relation& relation, RowId a, RowId b) {
  for (size_t col : relation.schema().qi_indices()) {
    if (relation.At(a, col) != relation.At(b, col)) return false;
  }
  return true;
}

/// Appends the block partitions of `subset` (which must be sorted by QI
/// similarity) to `out`, respecting the cap. Blocks are grown to >= k
/// rows and cut at QI-projection boundaries whenever possible, so a block
/// is a union of whole runs of identical tuples — identical runs keep
/// their values (and their contribution to other constraints' counts)
/// instead of being split across mixed clusters. A partition of more than
/// one block is followed by its one-block variant (all m rows together).
void AddPartitions(const Relation& relation, const std::vector<RowId>& subset,
                   size_t k, const ClusteringEnumOptions& options,
                   std::vector<CandidateClustering>* out) {
  if (out->size() >= options.max_clusterings) return;
  size_t m = subset.size();
  if (m < k) return;

  // Decompose the subset into runs of identical QI projections, then
  // assemble blocks from whole runs: a run of >= k rows becomes its own
  // uniform block(s) (full credit toward every constraint its tuples
  // match); runs smaller than k accumulate in a mixed buffer that is
  // flushed once it reaches k. Keeping small runs out of the big runs'
  // blocks is what preserves cross-constraint contributions.
  CandidateClustering blocked;
  blocked.preserved = m;
  Cluster buffer;  // small runs awaiting enough mass
  size_t run_begin = 0;
  for (size_t i = 0; i < m; ++i) {
    bool at_boundary =
        i + 1 == m || !SameQiProjection(relation, subset[i], subset[i + 1]);
    if (!at_boundary) continue;
    size_t run_length = i + 1 - run_begin;
    if (run_length >= k) {
      blocked.clusters.emplace_back(subset.begin() + run_begin,
                                    subset.begin() + i + 1);
    } else {
      buffer.insert(buffer.end(), subset.begin() + run_begin,
                    subset.begin() + i + 1);
      if (buffer.size() >= k) {
        blocked.clusters.push_back(std::move(buffer));
        buffer.clear();
      }
    }
    run_begin = i + 1;
  }
  if (!buffer.empty()) {
    if (!blocked.clusters.empty()) {
      // Leftover small runs: fold into the smallest existing block (the
      // least credit to lose).
      size_t smallest = 0;
      for (size_t b = 1; b < blocked.clusters.size(); ++b) {
        if (blocked.clusters[b].size() < blocked.clusters[smallest].size()) {
          smallest = b;
        }
      }
      blocked.clusters[smallest].insert(blocked.clusters[smallest].end(),
                                        buffer.begin(), buffer.end());
    } else {
      blocked.clusters.push_back(std::move(buffer));  // m >= k guaranteed
    }
    buffer.clear();
  }
  size_t num_blocks = blocked.clusters.size();
  out->push_back(std::move(blocked));

  if (num_blocks > 1 && out->size() < options.max_clusterings) {
    CandidateClustering single;
    single.preserved = m;
    single.clusters.emplace_back(subset.begin(), subset.end());
    out->push_back(std::move(single));
  }
}

/// One unit of enumeration work for the parallel phase: a row subset to
/// partition (windows arrive as rows pre-sorted by QI similarity; random
/// subsets as positions into the sorted order) or a candidate that was
/// already materialized inline (the interleaved escape-route clustering).
struct EnumerationJob {
  std::vector<RowId> subset;  // rows, already in QI-similarity order
  /// When non-empty, `subset` is ignored: these are positions into the
  /// caller's sorted target order, and SubsetInOrder turns them into
  /// exactly SortByQiSimilarity of the subset (the similarity order IS
  /// the position order) without ever reading the relation.
  std::vector<uint32_t> positions;
  /// When set, everything else is ignored and this candidate is emitted
  /// as-is.
  std::optional<CandidateClustering> ready;
};

/// Runs the partitioning of one job into a fresh candidate list. Pure
/// function of (sorted, job, k, options) — safe to evaluate for every
/// job concurrently; callers concatenate results in job order, which
/// reproduces the sequential emission order exactly.
std::vector<CandidateClustering> RunEnumerationJob(
    const Relation& relation, const std::vector<RowId>& sorted,
    EnumerationJob&& job, size_t k, const ClusteringEnumOptions& options) {
  std::vector<CandidateClustering> local;
  if (job.ready.has_value()) {
    local.push_back(std::move(*job.ready));
    return local;
  }
  if (!job.positions.empty()) {
    job.subset = SubsetInOrder(sorted, std::move(job.positions));
  }
  AddPartitions(relation, job.subset, k, options, &local);
  return local;
}

}  // namespace

std::vector<CandidateClustering> EnumerateClusterings(
    const Relation& relation, const DiversityConstraint& constraint,
    const std::vector<RowId>& targets, size_t k,
    const ClusteringEnumOptions& options) {
  std::vector<CandidateClustering> out;
  if (k == 0) return out;

  // With no lower bound to meet, preserving nothing is the minimal (and
  // always-consistent) choice; upper-bound spill from R_k is repaired by
  // Integrate.
  if (constraint.lower() == 0) {
    out.push_back(CandidateClustering{});
  }

  size_t lower = std::max<size_t>(1, constraint.lower());
  auto bounded = EnumerateClusteringsWithBounds(relation, targets, k, lower,
                                                constraint.upper(), options);
  out.insert(out.end(), std::make_move_iterator(bounded.begin()),
             std::make_move_iterator(bounded.end()));
  if (!options.ordered && out.size() > 1) {
    Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
    rng.Shuffle(&out);
  }
  return out;
}

std::vector<CandidateClustering> EnumerateClusteringsWithBounds(
    const Relation& relation, const std::vector<RowId>& free_targets,
    size_t k, size_t min_preserve, size_t max_preserve,
    const ClusteringEnumOptions& options) {
  std::vector<CandidateClustering> out;
  if (EnumerationIsTriviallyEmpty(free_targets.size(), k, min_preserve,
                                  max_preserve)) {
    return out;
  }

  // coloring.target_sorts counts constraint target orders: one here,
  // and one per constraint when the coloring engine filters every order
  // out of its search context's single sort. After one ColorConstraints
  // the deterministic counter equals the constraint count exactly
  // (coloring_test asserts this), so a code path that reaches this
  // per-call sort from inside the search loop shows up in the count.
  std::vector<RowId> sorted = SortByQiSimilarity(relation, free_targets);
  DIVA_COUNTER_ADD("coloring.target_sorts", 1);
  return EnumerateClusteringsQiSorted(relation, sorted, k, min_preserve,
                                      max_preserve, options);
}

bool EnumerationIsTriviallyEmpty(size_t free_targets, size_t k,
                                 size_t min_preserve, size_t max_preserve) {
  if (k == 0 || free_targets == 0) return true;
  size_t m_lo = std::max(k, std::max<size_t>(1, min_preserve));
  size_t m_hi = std::min(max_preserve, free_targets);
  return m_lo > m_hi;
}

std::vector<CandidateClustering> EnumerateClusteringsQiSorted(
    const Relation& relation, const std::vector<RowId>& sorted_free_targets,
    size_t k, size_t min_preserve, size_t max_preserve,
    const ClusteringEnumOptions& options) {
  DIVA_TRACE_SPAN("clusterings/enumerate");
  std::vector<CandidateClustering> out;
  if (EnumerationIsTriviallyEmpty(sorted_free_targets.size(), k,
                                  min_preserve, max_preserve)) {
    return out;
  }
  size_t m_lo = std::max(k, std::max<size_t>(1, min_preserve));
  size_t m_hi = std::min(max_preserve, sorted_free_targets.size());

  const std::vector<RowId>& sorted = sorted_free_targets;
  Rng rng(options.seed);

  std::vector<size_t> preserved_values;
  for (size_t step = 0; step < kPreservedSteps; ++step) {
    size_t m = m_lo + step * k;
    if (m > m_hi) break;
    preserved_values.push_back(m);
  }
  // Always consider the largest admissible subset too: preserving every
  // target tuple is sometimes the only way to respect a tight range.
  if (preserved_values.empty() || preserved_values.back() < m_hi) {
    preserved_values.push_back(m_hi);
  }

  for (size_t m : preserved_values) {
    if (out.size() >= options.max_clusterings) break;

    // Describe this m's work as independent jobs, sequentially and in
    // the exact emission order; every RNG draw happens here, up front,
    // so the stream is identical no matter how the jobs execute.
    std::vector<EnumerationJob> jobs;

    // Deterministic sliding windows over the similarity order.
    size_t positions = sorted.size() - m + 1;
    size_t windows = std::min(options.max_window_candidates, positions);
    if (windows > 0) {
      size_t stride = std::max<size_t>(1, positions / windows);
      for (size_t w = 0; w < windows; ++w) {
        size_t begin = w * stride;
        if (begin >= positions) break;
        EnumerationJob job;
        job.subset.assign(sorted.begin() + begin, sorted.begin() + begin + m);
        jobs.push_back(std::move(job));
      }
    }

    // A strided subset with an interleaved partition: rows are spread
    // across the similarity order and each block mixes dissimilar
    // tuples. Such clusters suppress more, but they contribute (almost)
    // nothing to OTHER constraints' preserved counts — the escape route
    // when similarity blocks keep tripping neighbors' upper bounds.
    if (m < sorted.size()) {
      size_t step = sorted.size() / m;
      std::vector<RowId> subset;
      subset.reserve(m);
      for (size_t i = 0; i < m; ++i) subset.push_back(sorted[i * step]);
      size_t num_blocks = m / k;
      if (num_blocks > 0) {
        CandidateClustering interleaved;
        interleaved.preserved = m;
        interleaved.clusters.assign(num_blocks, {});
        for (size_t i = 0; i < m; ++i) {
          interleaved.clusters[i % num_blocks].push_back(subset[i]);
        }
        EnumerationJob job;
        job.ready = std::move(interleaved);
        jobs.push_back(std::move(job));
      }
    }

    // Seeded random subsets for diversity beyond the similarity order.
    // The pool holds positions into `sorted`, not rows: the RNG swap
    // sequence is unchanged, and the job orders positions (SubsetInOrder)
    // instead of running the QI comparator over the relation again.
    std::vector<uint32_t> pool(sorted.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<uint32_t>(i);
    }
    for (size_t r = 0; r < options.random_subsets; ++r) {
      // Partial Fisher-Yates: the first m entries become a random subset.
      for (size_t i = 0; i < m; ++i) {
        size_t j = i + static_cast<size_t>(rng.NextBounded(pool.size() - i));
        std::swap(pool[i], pool[j]);
      }
      EnumerationJob job;
      job.positions.assign(pool.begin(), pool.begin() + m);
      jobs.push_back(std::move(job));
    }

    // Partition every subset concurrently; gathering by job index keeps
    // the candidate order byte-identical for every thread count.
    std::vector<std::vector<CandidateClustering>> produced =
        ParallelMap<std::vector<CandidateClustering>>(
            jobs.size(), /*grain=*/1, [&](size_t i) {
              return RunEnumerationJob(relation, sorted, std::move(jobs[i]),
                                       k, options);
            });
    for (std::vector<CandidateClustering>& batch : produced) {
      for (CandidateClustering& candidate : batch) {
        if (out.size() >= options.max_clusterings) break;
        out.push_back(std::move(candidate));
      }
    }
  }

  if (!options.ordered) {
    rng.Shuffle(&out);
  }
  DIVA_COUNTER_ADD("clusterings.enumerated", out.size());
  return out;
}

}  // namespace diva
