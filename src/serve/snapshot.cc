#include "serve/snapshot.h"

#include "common/failpoint.h"

namespace diva {
namespace serve {

Result<uint64_t> SnapshotStore::Publish(Snapshot snapshot) {
  // The snapshot is complete at this point; the failpoint models a crash
  // on the publication path. Firing here proves the invariant: the store
  // is untouched, so no reader can see a half-published version.
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("serve.publish"));
  MutexLock lock(mutex_);

  // Capacity sweep: make room by retiring the oldest snapshot. A reader
  // holding it keeps its data alive.
  while (!snapshots_.empty() && snapshots_.size() >= capacity_) {
    snapshots_.erase(snapshots_.begin());
    ++evicted_;
  }

  snapshot.id = next_id_++;
  const uint64_t id = snapshot.id;
  snapshots_.emplace(id,
                     std::make_shared<const Snapshot>(std::move(snapshot)));
  return id;
}

std::shared_ptr<const Snapshot> SnapshotStore::Find(uint64_t id) const {
  MutexLock lock(mutex_);
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : it->second;
}

uint64_t SnapshotStore::latest_id() const {
  MutexLock lock(mutex_);
  return snapshots_.empty() ? 0 : snapshots_.rbegin()->first;
}

size_t SnapshotStore::size() const {
  MutexLock lock(mutex_);
  return snapshots_.size();
}

uint64_t SnapshotStore::evicted() const {
  MutexLock lock(mutex_);
  return evicted_;
}

}  // namespace serve
}  // namespace diva
