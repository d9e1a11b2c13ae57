#include "hierarchy/taxonomy.h"

#include <algorithm>

#include "common/string_util.h"

namespace diva {

namespace {

std::string IntervalLabel(int64_t lo, int64_t hi) {
  if (lo == hi) return std::to_string(lo);
  return "[" + std::to_string(lo) + "-" + std::to_string(hi) + "]";
}

}  // namespace

Result<Taxonomy> Taxonomy::FromParentPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  Taxonomy taxonomy;
  auto intern = [&taxonomy](const std::string& label) -> NodeId {
    auto it = taxonomy.index_.find(label);
    if (it != taxonomy.index_.end()) return it->second;
    NodeId id = static_cast<NodeId>(taxonomy.labels_.size());
    taxonomy.labels_.push_back(label);
    taxonomy.parents_.push_back(kInvalidNode);
    taxonomy.index_.emplace(label, id);
    return id;
  };

  for (const auto& [child, parent] : pairs) {
    if (child.empty() || parent.empty()) {
      return Status::InvalidArgument("taxonomy labels must be non-empty");
    }
    if (child == parent) {
      return Status::InvalidArgument("taxonomy self-loop on '" + child + "'");
    }
    NodeId child_id = intern(child);
    NodeId parent_id = intern(parent);
    if (taxonomy.parents_[child_id] != kInvalidNode &&
        taxonomy.parents_[child_id] != parent_id) {
      return Status::InvalidArgument("taxonomy node '" + child +
                                     "' has two parents");
    }
    taxonomy.parents_[child_id] = parent_id;
  }
  DIVA_RETURN_IF_ERROR(taxonomy.FinishConstruction());
  return taxonomy;
}

Result<Taxonomy> Taxonomy::FromText(std::string_view text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    auto parts = Split(line, ',');
    if (parts.size() != 2) {
      return Status::InvalidArgument("taxonomy line must be 'child,parent': " +
                                     std::string(line));
    }
    pairs.emplace_back(std::string(Trim(parts[0])),
                       std::string(Trim(parts[1])));
  }
  return FromParentPairs(pairs);
}

Result<Taxonomy> Taxonomy::Intervals(int64_t lo, int64_t hi, size_t fanout) {
  if (hi < lo) return Status::InvalidArgument("empty interval domain");
  if (fanout < 2) return Status::InvalidArgument("interval fanout must be >= 2");

  std::vector<std::pair<std::string, std::string>> pairs;
  // Level 0: single values; build ranges upward until one range remains.
  struct Range {
    int64_t lo;
    int64_t hi;
  };
  std::vector<Range> current;
  for (int64_t v = lo; v <= hi; ++v) current.push_back({v, v});
  while (current.size() > 1) {
    std::vector<Range> next;
    for (size_t i = 0; i < current.size(); i += fanout) {
      size_t end = std::min(current.size(), i + fanout);
      Range merged = {current[i].lo, current[end - 1].hi};
      next.push_back(merged);
      std::string parent_label = IntervalLabel(merged.lo, merged.hi);
      for (size_t j = i; j < end; ++j) {
        std::string child_label =
            IntervalLabel(current[j].lo, current[j].hi);
        // A singleton group's range equals its only child's: that child
        // simply carries over to the next level.
        if (child_label != parent_label) {
          pairs.emplace_back(std::move(child_label), parent_label);
        }
      }
    }
    // Guard against a single child inheriting its own label (lo..hi equal
    // to the parent's): FromParentPairs rejects self-loops, and a level
    // with one range terminates the loop anyway.
    current = std::move(next);
  }
  return FromParentPairs(pairs);
}

Status Taxonomy::FinishConstruction() {
  if (labels_.empty()) {
    return Status::InvalidArgument("taxonomy is empty");
  }
  root_ = kInvalidNode;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (parents_[i] == kInvalidNode) {
      if (root_ != kInvalidNode) {
        return Status::InvalidArgument("taxonomy has two roots: '" +
                                       labels_[root_] + "' and '" +
                                       labels_[i] + "'");
      }
      root_ = static_cast<NodeId>(i);
    }
  }
  if (root_ == kInvalidNode) {
    return Status::InvalidArgument("taxonomy has no root (cycle)");
  }

  // Depths (and cycle detection).
  depths_.assign(labels_.size(), 0);
  for (size_t i = 0; i < labels_.size(); ++i) {
    size_t depth = 0;
    NodeId node = static_cast<NodeId>(i);
    while (parents_[node] != kInvalidNode) {
      node = parents_[node];
      if (++depth > labels_.size()) {
        return Status::InvalidArgument("taxonomy contains a cycle");
      }
    }
    depths_[i] = depth;
    (void)node;
  }

  // Leaf counts: a leaf is a node that is no one's parent.
  std::vector<bool> is_parent(labels_.size(), false);
  for (NodeId parent : parents_) {
    if (parent != kInvalidNode) is_parent[parent] = true;
  }
  leaf_counts_.assign(labels_.size(), 0);
  num_leaves_ = 0;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (is_parent[i]) continue;
    ++num_leaves_;
    NodeId node = static_cast<NodeId>(i);
    while (node != kInvalidNode) {
      ++leaf_counts_[node];
      node = parents_[node];
    }
  }
  return Status::OK();
}

std::optional<Taxonomy::NodeId> Taxonomy::Find(std::string_view label) const {
  auto it = index_.find(std::string(label));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Taxonomy::NodeId Taxonomy::Lca(NodeId a, NodeId b) const {
  while (depths_[a] > depths_[b]) a = parents_[a];
  while (depths_[b] > depths_[a]) b = parents_[b];
  while (a != b) {
    a = parents_[a];
    b = parents_[b];
  }
  return a;
}

}  // namespace diva
