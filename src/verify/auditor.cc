#include "verify/auditor.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace diva {

const char* AuditCheckToString(AuditCheck check) {
  switch (check) {
    case AuditCheck::kGroupSize:
      return "group-size";
    case AuditCheck::kConstraintBounds:
      return "constraint-bounds";
    case AuditCheck::kContainment:
      return "containment";
    case AuditCheck::kStarAccounting:
      return "star-accounting";
  }
  return "unknown";
}

bool AuditReport::Flagged(AuditCheck check) const {
  for (const AuditViolation& violation : violations) {
    if (violation.check == check) return true;
  }
  return false;
}

std::string AuditReport::ToString() const {
  std::ostringstream out;
  if (ok()) {
    out << "audit OK";
  } else {
    out << "audit FAILED (" << violations.size() << " violation"
        << (violations.size() == 1 ? "" : "s") << ")";
    for (const AuditViolation& violation : violations) {
      out << "\n  [" << AuditCheckToString(violation.check) << "] "
          << violation.detail;
    }
  }
  out << "\nstats: rows=" << stats.rows << " qi_groups=" << stats.num_groups
      << " min_group=" << stats.min_group_size
      << " added_stars=" << stats.added_stars
      << " removed_stars=" << stats.removed_stars
      << " generalized_cells=" << stats.generalized_cells
      << " edited_cells=" << stats.edited_cells;
  return out.str();
}

namespace {

/// Collects violations with a per-check cap on retained details; the
/// exact totals stay in AuditStats.
class ViolationRecorder {
 public:
  ViolationRecorder(AuditReport* report, size_t max_per_check)
      : report_(report), max_per_check_(max_per_check) {}

  void Record(AuditCheck check, std::string detail) {
    size_t& count = counts_[static_cast<size_t>(check)];
    ++count;
    if (count <= max_per_check_) {
      report_->violations.push_back({check, std::move(detail)});
    } else if (count == max_per_check_ + 1) {
      report_->violations.push_back(
          {check, "further violations of this check omitted"});
    }
  }

  /// Accounts for `n` violations whose details a caller dropped (they
  /// could only ever land past the cap). Equivalent to `n` Record calls
  /// with discarded details: it bumps the count and emits the omission
  /// marker if this batch is what crosses the cap.
  void RecordOmitted(AuditCheck check, size_t n) {
    if (n == 0) return;
    size_t& count = counts_[static_cast<size_t>(check)];
    bool was_within_cap = count <= max_per_check_;
    count += n;
    if (was_within_cap && count > max_per_check_) {
      report_->violations.push_back(
          {check, "further violations of this check omitted"});
    }
  }

  size_t max_per_check() const { return max_per_check_; }

 private:
  AuditReport* report_;
  size_t max_per_check_;
  size_t counts_[4] = {0, 0, 0, 0};
};

bool IsWaived(const AuditOptions& options, size_t constraint_index) {
  return std::binary_search(options.waived_constraints.begin(),
                            options.waived_constraints.end(),
                            constraint_index);
}

/// True when `descendant` lies strictly below `ancestor` in `taxonomy`.
bool IsProperAncestor(const Taxonomy& taxonomy, Taxonomy::NodeId ancestor,
                      Taxonomy::NodeId descendant) {
  if (ancestor == descendant) return false;
  for (Taxonomy::NodeId node = taxonomy.Parent(descendant);
       node != Taxonomy::kInvalidNode; node = taxonomy.Parent(node)) {
    if (node == ancestor) return true;
  }
  return false;
}

/// The distinct QI patterns of a set of rows with their group sizes: an
/// open-addressing table (linear probing, power-of-two capacity) over a
/// flat pattern store. Written for the audit alone, independent of
/// relation/qi_groups.cc. A suppressed cell only equals another
/// suppressed cell, which code equality gives for free (kSuppressed is a
/// reserved code).
class PatternCounts {
 public:
  PatternCounts() = default;
  explicit PatternCounts(size_t width) : width_(width) {}

  /// Adds `size` rows to the group of `pattern` (one code per QI column).
  void Add(const ValueCode* pattern, size_t size) {
    if (2 * (sizes_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Hash(pattern) & mask;; slot = (slot + 1) & mask) {
      const uint32_t id = slots_[slot];
      if (id == kEmpty) {
        slots_[slot] = static_cast<uint32_t>(sizes_.size());
        codes_.insert(codes_.end(), pattern, pattern + width_);
        sizes_.push_back(size);
        return;
      }
      if (std::equal(pattern, pattern + width_, Pattern(id))) {
        sizes_[id] += size;
        return;
      }
    }
  }

  size_t NumPatterns() const { return sizes_.size(); }
  const ValueCode* Pattern(size_t id) const {
    return codes_.data() + id * width_;
  }
  size_t Size(size_t id) const { return sizes_[id]; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint64_t Hash(const ValueCode* pattern) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ static_cast<uint32_t>(pattern[i])) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return h;
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < sizes_.size(); ++id) {
      size_t slot = Hash(Pattern(id)) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(id);
    }
  }

  size_t width_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<ValueCode> codes_;
  std::vector<size_t> sizes_;
};

/// Re-derives the QI-groups of `relation` from scratch (independent of
/// relation/qi_groups.cc) and records undersized groups.
void CheckGroupSizes(const Relation& relation, size_t k,
                     ViolationRecorder* recorder, AuditStats* stats) {
  const std::vector<size_t>& qi = relation.schema().qi_indices();
  // Each row-range chunk collects its distinct patterns; the chunks merge
  // in ascending order. Chunk boundaries are a pure function of the row
  // count, and the merged groups are sorted lexicographically before
  // anything is recorded (the order of an ordered map keyed by the
  // projection), so no hash order and no thread count reaches the report.
  const size_t chunk_size = relation.NumRows() / 64 + 1;
  const size_t chunks = (relation.NumRows() + chunk_size - 1) / chunk_size;
  std::vector<PatternCounts> partials =
      ParallelMap<PatternCounts>(chunks, /*grain=*/1, [&](size_t c) {
        PatternCounts local(qi.size());
        std::vector<ValueCode> key(qi.size());
        const size_t begin = c * chunk_size;
        const size_t end = std::min(begin + chunk_size, relation.NumRows());
        for (size_t row = begin; row < end; ++row) {
          for (size_t i = 0; i < qi.size(); ++i) {
            key[i] = relation.At(static_cast<RowId>(row), qi[i]);
          }
          local.Add(key.data(), 1);
        }
        return local;
      });
  PatternCounts groups(qi.size());
  for (const PatternCounts& partial : partials) {
    for (size_t id = 0; id < partial.NumPatterns(); ++id) {
      groups.Add(partial.Pattern(id), partial.Size(id));
    }
  }
  std::vector<uint32_t> order(groups.NumPatterns());
  for (size_t id = 0; id < order.size(); ++id) {
    order[id] = static_cast<uint32_t>(id);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(groups.Pattern(a),
                                        groups.Pattern(a) + qi.size(),
                                        groups.Pattern(b),
                                        groups.Pattern(b) + qi.size());
  });

  stats->num_groups = order.size();
  stats->min_group_size = 0;
  bool first = true;
  for (uint32_t id : order) {
    const size_t size = groups.Size(id);
    const ValueCode* pattern = groups.Pattern(id);
    if (first || size < stats->min_group_size) stats->min_group_size = size;
    first = false;
    if (size < k) {
      std::ostringstream detail;
      detail << "QI-group of size " << size << " < k = " << k
             << " (pattern";
      for (size_t i = 0; i < qi.size(); ++i) {
        detail << ' ' << relation.schema().attribute(qi[i]).name << '='
               << (pattern[i] == kSuppressed
                       ? std::string("*")
                       : relation.dictionary(qi[i]).ValueOf(pattern[i]));
      }
      detail << ')';
      recorder->Record(AuditCheck::kGroupSize, detail.str());
    }
  }
}

/// Counts every constraint's occurrences in one pass of its own (no
/// shared code with the pipeline's ConstraintIndex) and records bound
/// breaches in constraint order.
void CheckConstraintBounds(const Relation& relation,
                           const ConstraintSet& constraints,
                           const AuditOptions& options,
                           ViolationRecorder* recorder, AuditStats* stats) {
  // Resolve the target values against the output dictionaries; a value
  // absent from a dictionary can never match (the count stays 0).
  // Single-attribute targets get a tally slot through a per-column
  // code -> slot table; multi-attribute constraints share one row check.
  std::vector<std::vector<int32_t>> slot_of(relation.NumAttributes());
  std::vector<size_t> columns;
  std::vector<size_t> slot_of_constraint(constraints.size(), SIZE_MAX);
  size_t num_slots = 0;
  struct Multi {
    size_t index;
    std::vector<ValueCode> codes;
  };
  std::vector<Multi> multi;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const std::vector<size_t>& attrs = constraints[ci].attribute_indices();
    std::vector<ValueCode> codes;
    for (size_t i = 0; i < attrs.size(); ++i) {
      auto code = relation.FindCode(attrs[i], constraints[ci].values()[i]);
      if (!code.has_value()) break;
      codes.push_back(*code);
    }
    if (codes.size() != attrs.size()) continue;
    if (codes.size() > 1) {
      multi.push_back({ci, std::move(codes)});
      continue;
    }
    std::vector<int32_t>& table = slot_of[attrs[0]];
    if (table.empty()) {
      table.assign(relation.dictionary(attrs[0]).size(), -1);
      columns.push_back(attrs[0]);
    }
    if (table[codes[0]] < 0) {
      table[codes[0]] = static_cast<int32_t>(num_slots++);
    }
    slot_of_constraint[ci] = static_cast<size_t>(table[codes[0]]);
  }

  // One row scan tallies every slot and every multi-attribute constraint:
  // exact integer sums of chunk partials, identical at every width.
  const size_t width = num_slots + multi.size();
  std::vector<size_t> tally = ParallelReduce<std::vector<size_t>>(
      width == 0 ? 0 : relation.NumRows(), /*grain=*/0,
      std::vector<size_t>(width, 0),
      [&](size_t begin, size_t end) {
        std::vector<size_t> local(width, 0);
        for (size_t r = begin; r < end; ++r) {
          const std::span<const ValueCode> row =
              relation.Row(static_cast<RowId>(r));
          for (size_t col : columns) {
            const ValueCode code = row[col];
            if (code < 0 || static_cast<size_t>(code) >= slot_of[col].size()) {
              continue;
            }
            const int32_t slot = slot_of[col][static_cast<size_t>(code)];
            if (slot >= 0) ++local[static_cast<size_t>(slot)];
          }
          for (size_t m = 0; m < multi.size(); ++m) {
            const std::vector<size_t>& attrs =
                constraints[multi[m].index].attribute_indices();
            bool match = true;
            for (size_t i = 0; i < attrs.size() && match; ++i) {
              match = row[attrs[i]] == multi[m].codes[i];
            }
            if (match) ++local[num_slots + m];
          }
        }
        return local;
      },
      [](std::vector<size_t> acc, std::vector<size_t> chunk) {
        for (size_t i = 0; i < acc.size(); ++i) acc[i] += chunk[i];
        return acc;
      });

  stats->constraint_counts.assign(constraints.size(), 0);
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    if (slot_of_constraint[ci] != SIZE_MAX) {
      stats->constraint_counts[ci] = tally[slot_of_constraint[ci]];
    }
  }
  for (size_t m = 0; m < multi.size(); ++m) {
    stats->constraint_counts[multi[m].index] = tally[num_slots + m];
  }
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DiversityConstraint& constraint = constraints[ci];
    const size_t count = stats->constraint_counts[ci];
    bool in_bounds =
        count >= constraint.lower() && count <= constraint.upper();
    if (!in_bounds && !IsWaived(options, ci)) {
      std::ostringstream detail;
      detail << "constraint #" << ci << " " << constraint.ToString()
             << " has " << count << " occurrences";
      recorder->Record(AuditCheck::kConstraintBounds, detail.str());
    }
  }
}

/// Sentinel for an input value with no equal value in the output
/// dictionary; distinct from every valid code and from kSuppressed.
constexpr ValueCode kUnmatched = -2;

/// Cell-by-cell pass shared by the containment and star-accounting
/// checks: classifies every output cell as unchanged, newly suppressed,
/// generalized, un-suppressed, or edited. Cells are compared by *value*,
/// not by raw code: when the two relations were read independently (as
/// in verify_cli --original) equal strings carry different codes, so
/// each column gets an input-code -> output-code translation table
/// unless the dictionaries are the same object.
void CheckCellsAndStars(const Relation& input, const Relation& output,
                        const AuditOptions& options,
                        ViolationRecorder* recorder, AuditStats* stats) {
  const GeneralizationContext* context = options.generalization.get();
  std::vector<std::vector<ValueCode>> translate(output.NumAttributes());
  for (size_t col = 0; col < output.NumAttributes(); ++col) {
    if (&input.dictionary(col) == &output.dictionary(col)) continue;
    const Dictionary& in_dict = input.dictionary(col);
    translate[col].resize(in_dict.size());
    for (size_t code = 0; code < in_dict.size(); ++code) {
      translate[col][code] =
          output.FindCode(col, in_dict.ValueOf(static_cast<ValueCode>(code)))
              .value_or(kUnmatched);
    }
  }
  // The cell pass chunks over row ranges. Each chunk tallies its own
  // exact stat counters and keeps violation details interleaved in cell
  // order — but at most cap+1 per check, because a detail past the
  // recorder's cap can never be published; beyond that only the exact
  // per-check overflow count is kept. Replaying chunks in ascending
  // order then feeds the recorder the same Record sequence as the
  // sequential pass (dropped details are accounted via RecordOmitted,
  // which by then can no longer change what gets published), so stats
  // and the violation list are bit-identical for every thread count.
  struct CellChunk {
    size_t added_stars = 0;
    size_t removed_stars = 0;
    size_t generalized_cells = 0;
    size_t edited_cells = 0;
    std::vector<std::pair<AuditCheck, std::string>> details;
    size_t stored_star = 0, omitted_star = 0;
    size_t stored_contain = 0, omitted_contain = 0;
  };
  size_t detail_cap = recorder->max_per_check() + 1;
  size_t chunk_size = output.NumRows() / 64 + 1;
  size_t chunks = (output.NumRows() + chunk_size - 1) / chunk_size;
  std::vector<CellChunk> cell_chunks =
      ParallelMap<CellChunk>(chunks, /*grain=*/1, [&](size_t c) {
        CellChunk local;
        size_t row_begin = c * chunk_size;
        size_t row_end = std::min(row_begin + chunk_size, output.NumRows());
        for (size_t r = row_begin; r < row_end; ++r) {
          RowId row = static_cast<RowId>(r);
          for (size_t col = 0; col < output.NumAttributes(); ++col) {
            ValueCode in = input.At(row, col);
            ValueCode out = output.At(row, col);
            if (!translate[col].empty() && in != kSuppressed) {
              in = translate[col][in];
            }
            if (in == out) continue;
            if (out == kSuppressed) {
              ++local.added_stars;
              continue;
            }
            if (in == kSuppressed) {
              ++local.removed_stars;
              if (local.stored_star < detail_cap) {
                ++local.stored_star;
                local.details.emplace_back(
                    AuditCheck::kStarAccounting,
                    "row " + std::to_string(row) + " col " +
                        std::to_string(col) +
                        ": suppressed input cell re-published as '" +
                        output.ValueString(row, col) + "'");
              } else {
                ++local.omitted_star;
              }
              continue;
            }
            // Differing, non-star cell: only legal as a taxonomy ancestor.
            if (context != nullptr && col < context->num_attributes() &&
                context->HasTaxonomy(col)) {
              const Taxonomy& taxonomy = context->taxonomy(col);
              auto in_node = taxonomy.Find(input.ValueString(row, col));
              auto out_node = taxonomy.Find(output.ValueString(row, col));
              if (in_node.has_value() && out_node.has_value() &&
                  IsProperAncestor(taxonomy, *out_node, *in_node)) {
                ++local.generalized_cells;
                continue;
              }
            }
            ++local.edited_cells;
            if (local.stored_contain < detail_cap) {
              ++local.stored_contain;
              local.details.emplace_back(
                  AuditCheck::kContainment,
                  "row " + std::to_string(row) + " col " +
                      std::to_string(col) + ": '" +
                      input.ValueString(row, col) + "' became '" +
                      output.ValueString(row, col) +
                      "' (neither suppression nor a taxonomy ancestor)");
            } else {
              ++local.omitted_contain;
            }
          }
        }
        return local;
      });
  for (CellChunk& chunk : cell_chunks) {
    stats->added_stars += chunk.added_stars;
    stats->removed_stars += chunk.removed_stars;
    stats->generalized_cells += chunk.generalized_cells;
    stats->edited_cells += chunk.edited_cells;
    for (auto& [check, detail] : chunk.details) {
      recorder->Record(check, std::move(detail));
    }
    recorder->RecordOmitted(AuditCheck::kStarAccounting, chunk.omitted_star);
    recorder->RecordOmitted(AuditCheck::kContainment, chunk.omitted_contain);
  }
  if (options.expected_added_stars.has_value() &&
      stats->added_stars != *options.expected_added_stars) {
    recorder->Record(
        AuditCheck::kStarAccounting,
        "expected " + std::to_string(*options.expected_added_stars) +
            " added stars, counted " + std::to_string(stats->added_stars));
  }
}

}  // namespace

Result<AuditReport> AuditAnonymization(const Relation& input,
                                       const Relation& output, size_t k,
                                       const ConstraintSet& constraints,
                                       const AuditOptions& options) {
  DIVA_TRACE_SPAN("audit/run");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("audit.run"));
  if (k == 0) {
    return Status::InvalidArgument("audit: k must be >= 1");
  }
  if (input.NumAttributes() != output.NumAttributes()) {
    return Status::InvalidArgument(
        "audit: input has " + std::to_string(input.NumAttributes()) +
        " attributes, output has " +
        std::to_string(output.NumAttributes()));
  }
  if (input.NumRows() != output.NumRows()) {
    return Status::InvalidArgument(
        "audit: input has " + std::to_string(input.NumRows()) +
        " rows, output has " + std::to_string(output.NumRows()) +
        " (suppression-only publishing keeps row ids stable)");
  }
  if (!std::is_sorted(options.waived_constraints.begin(),
                      options.waived_constraints.end())) {
    return Status::InvalidArgument(
        "audit: waived_constraints must be sorted ascending");
  }

  AuditReport report;
  report.stats.rows = output.NumRows();
  ViolationRecorder recorder(&report, options.max_details_per_check);

  {
    DIVA_TRACE_SPAN("audit/group_sizes");
    CheckGroupSizes(output, k, &recorder, &report.stats);
  }
  {
    DIVA_TRACE_SPAN("audit/constraint_bounds");
    CheckConstraintBounds(output, constraints, options, &recorder,
                          &report.stats);
  }
  {
    DIVA_TRACE_SPAN("audit/cells_and_stars");
    CheckCellsAndStars(input, output, options, &recorder, &report.stats);
  }

  DIVA_COUNTER_ADD("audit.violations", report.violations.size());
  return report;
}

}  // namespace diva
