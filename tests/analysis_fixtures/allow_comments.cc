// Analysis fixture: the escape hatch. Every check fires exactly once in
// this file and every finding carries an `analyze: allow-<check>` tag on
// the flagged line or the line above, so the analyzer must exit 0 with
// nine suppressed findings. The file stands in for src/core/, where
// every check applies.
//
// path-role: hot-path
// expect: unordered-sink=0 pointer-order=0 raw-mutex=0 raw-random=0
// expect: raw-thread=0 raw-clock=0 adhoc-instrumentation=0 vector-bool=0
// expect: mutable-global=0
// expect-suppressed: unordered-sink=1 pointer-order=1 raw-mutex=1
// expect-suppressed: raw-random=1 raw-thread=1 raw-clock=1
// expect-suppressed: adhoc-instrumentation=1 vector-bool=1 mutable-global=1

#include "fixture_stubs.h"

namespace fixture {

int g_mode = 0;  // analyze: allow-mutable-global — toggled only in single-threaded test setup

struct LegacyGuard {
  // analyze: allow-raw-mutex — exercises the suppression path only
  std::mutex mu;
};

unsigned long long HashMix(unsigned long long state, int value);

inline unsigned long long FingerprintAll(
    const std::unordered_map<int, int>& table) {
  unsigned long long state = 0;
  for (const auto& [key, value] : table) {
    // analyze: allow-unordered-sink — commutative mix, order-insensitive
    state = HashMix(state, value);
  }
  return state;
}

inline bool SameArenaOrder(const int* a, const int* b) {
  // analyze: allow-pointer-order — arena membership probe in a test helper
  return a < b;
}

inline int LegacyRoll() {
  return rand();  // analyze: allow-raw-random — suppression-path fixture only
}

void Work();

inline void SpawnPeer() {
  // analyze: allow-raw-thread — the peer must outlive a pool task
  std::thread peer(Work);
  peer.join();
}

inline long long WallClockStamp() {
  auto now = std::chrono::system_clock::now();  // analyze: allow-raw-clock — wall time for a log stamp
  return 0;
}

inline void DumpState(int rows) {
  // analyze: allow-adhoc-instrumentation — one-off debug dump
  std::fprintf(stderr, "rows %d\n", rows);
}

inline int CountSeen(int rows) {
  std::vector<bool> seen(rows, false);  // analyze: allow-vector-bool — cold path, rows < 64
  return static_cast<int>(seen.size());
}

}  // namespace fixture
