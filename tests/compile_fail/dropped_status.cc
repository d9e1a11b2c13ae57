// Compile-time regression test for the dropped-Status rule: Status and
// Result<T> are [[nodiscard]] and the build promotes -Wunused-result to
// an error, so each bare call below must fail to compile. The
// `dropped_status_rejected` ctest compiles this file with -fsyntax-only
// and passes only on the nodiscard diagnostic for every call;
// `dropped_status_void_cast_compiles` defines DIVA_VOID_CAST, which
// spells each call as a deliberate `(void)` discard that must compile.
//
// Never part of a build target.

#include "common/result.h"
#include "common/status.h"

namespace {

diva::Status SaveSnapshot() { return diva::Status::OK(); }

diva::Result<int> CountRows() { return 7; }

template <typename T>
class Sink {
 public:
  diva::Status Flush() { return diva::Status::OK(); }
};

}  // namespace

int main() {
  Sink<int> sink;
#ifdef DIVA_VOID_CAST
  (void)SaveSnapshot();  // the value is discarded on purpose
  (void)CountRows();     // the value is discarded on purpose
  (void)sink.Flush();    // the value is discarded on purpose
#else
  SaveSnapshot();
  CountRows();
  sink.Flush();
#endif
  return 0;
}
