#ifndef DIVA_SERVE_SNAPSHOT_H_
#define DIVA_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "relation/relation.h"

namespace diva {
namespace serve {

/// An immutable published anonymization result. Everything in here is
/// frozen at publish time; readers hold a shared_ptr<const Snapshot> and
/// never observe mutation.
struct Snapshot {
  /// Relation has no default state, so neither does a Snapshot: one is
  /// born around the relation it publishes.
  explicit Snapshot(Relation published) : relation(std::move(published)) {}

  /// Dense id assigned at publish time, starting at 1 (0 = "none").
  uint64_t id = 0;
  /// Provenance: the request line that produced this snapshot.
  std::string label;
  Relation relation;
  /// The base relation this snapshot anonymized. `verify` replays the
  /// audit against it, so a snapshot published before an `update` swapped
  /// the served base stays verifiable. Null when published outside the
  /// server's handlers (tests driving the store directly).
  std::shared_ptr<const Relation> source;
  /// The k the snapshot was anonymized for (verify re-checks against it).
  size_t k = 0;
  /// Constraint indices the producing run reported unsatisfied — the
  /// audit waiver list a later `verify` request must replay.
  std::vector<size_t> waived_constraints;
  /// True iff the producing run's self-audit passed. The server never
  /// publishes unaudited relations, so this is always true for snapshots
  /// that exist — kept explicit so the invariant is checkable.
  bool audited = false;
  /// The producing run was cut short (its token tripped) and the
  /// snapshot is the anytime best effort.
  bool degraded = false;
};

/// Versioned store of published snapshots with crash-safe publication:
/// a snapshot is fully constructed *before* it becomes reachable, and
/// insertion under the lock is the single atomic publication point. A
/// failure (or injected fault — failpoint serve.publish) anywhere before
/// that point leaves the store exactly as it was; no request can ever
/// fetch a half-written snapshot.
///
/// Retention is by count alone and runs at each publish, never in the
/// background: publishing into a full store evicts the oldest snapshot,
/// so which snapshots a request sequence retains is deterministic and
/// replayable. An evicted snapshot stays alive for whoever already holds
/// its shared_ptr (a `fetch` mid-stream); it is only no longer findable.
class SnapshotStore {
 public:
  /// `capacity` bounds retained snapshots by count.
  explicit SnapshotStore(size_t capacity) : capacity_(capacity) {}

  /// Publishes atomically and returns the assigned id.
  [[nodiscard]] Result<uint64_t> Publish(Snapshot snapshot);

  /// The published snapshot with this id, or null.
  std::shared_ptr<const Snapshot> Find(uint64_t id) const;

  /// Highest published id (0 when empty).
  uint64_t latest_id() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Snapshots retired by retention so far.
  uint64_t evicted() const;

 private:
  const size_t capacity_;
  mutable Mutex mutex_;
  uint64_t next_id_ DIVA_GUARDED_BY(mutex_) = 1;
  uint64_t evicted_ DIVA_GUARDED_BY(mutex_) = 0;
  std::map<uint64_t, std::shared_ptr<const Snapshot>> snapshots_
      DIVA_GUARDED_BY(mutex_);
};

}  // namespace serve
}  // namespace diva

#endif  // DIVA_SERVE_SNAPSHOT_H_
