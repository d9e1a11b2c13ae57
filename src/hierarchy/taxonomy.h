#ifndef DIVA_HIERARCHY_TAXONOMY_H_
#define DIVA_HIERARCHY_TAXONOMY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace diva {

/// A value generalization hierarchy (taxonomy tree) for one attribute:
/// leaves are domain values, internal nodes are coarser labels, the root
/// generalizes everything (suppression is the degenerate flat taxonomy —
/// the paper treats ★ as "a maximal form of generalization").
///
/// Used by the generalization recoder (hierarchy/generalize.h) to replace
/// a cluster's disagreeing values with their lowest common ancestor
/// instead of a ★, and by the NCP information-loss metric.
class Taxonomy {
 public:
  using NodeId = int32_t;
  static constexpr NodeId kInvalidNode = -1;

  /// Builds from (child, parent) label pairs. Exactly one label must end
  /// up parentless (the root); labels are unique; cycles are rejected.
  [[nodiscard]] static Result<Taxonomy> FromParentPairs(
      const std::vector<std::pair<std::string, std::string>>& pairs);

  /// Parses the textual form: one "child,parent" pair per line; blank
  /// lines and '#' comments ignored.
  [[nodiscard]] static Result<Taxonomy> FromText(std::string_view text);

  /// Interval hierarchy over the integers [lo, hi]: leaves are single
  /// values, parents are ranges of `fanout` children ("[20-29]"), up to a
  /// root spanning everything. fanout >= 2.
  [[nodiscard]] static Result<Taxonomy> Intervals(int64_t lo, int64_t hi, size_t fanout);

  NodeId root() const { return root_; }
  size_t NumNodes() const { return labels_.size(); }
  size_t NumLeaves() const { return num_leaves_; }

  /// Node carrying `label`, if any.
  std::optional<NodeId> Find(std::string_view label) const;

  const std::string& Label(NodeId node) const { return labels_[node]; }
  NodeId Parent(NodeId node) const { return parents_[node]; }
  bool IsLeaf(NodeId node) const { return leaf_counts_[node] == 1; }
  /// Distance from the root (root = 0).
  size_t Depth(NodeId node) const { return depths_[node]; }
  /// Number of leaves in the subtree under `node`.
  size_t LeafCount(NodeId node) const { return leaf_counts_[node]; }

  /// Lowest common ancestor of two nodes.
  NodeId Lca(NodeId a, NodeId b) const;

 private:
  Taxonomy() = default;
  [[nodiscard]] Status FinishConstruction();

  std::vector<std::string> labels_;
  std::vector<NodeId> parents_;        // kInvalidNode for the root
  std::vector<size_t> depths_;
  std::vector<size_t> leaf_counts_;
  std::unordered_map<std::string, NodeId> index_;
  NodeId root_ = kInvalidNode;
  size_t num_leaves_ = 0;
};

}  // namespace diva

#endif  // DIVA_HIERARCHY_TAXONOMY_H_
