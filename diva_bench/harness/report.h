#ifndef DIVA_BENCH_REPORT_H_
#define DIVA_BENCH_REPORT_H_

// Result assembly for one benchmark run: named metrics with units, the
// attempted/failed operation tally, the correctness verdict and the
// `_meta` provenance block, plus the small statistics and /proc helpers
// every workload shares.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace diva_bench {

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile, `p` in (0, 100] (0 when empty).
double Percentile(std::vector<double> values, double p);

/// Seconds since `start` on the monotonic clock.
inline double Since(double start) { return diva::MonotonicSeconds() - start; }

/// Peak resident set (VmHWM) of process `pid` in MiB; `pid` 0 = self.
/// 0 when /proc is unreadable.
double PeakRssMb(int pid = 0);

/// Resets process `pid`'s VmHWM to its current resident set (Linux
/// clear_refs "5"), so a later PeakRssMb covers only what follows.
bool ResetPeakRss(int pid = 0);

/// FNV-1a over bytes, chainable through `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 1469598103934665603ULL);

/// FNV-1a over a whole file's bytes; false when it cannot be read.
bool HashFile(const std::string& path, uint64_t* hash, uint64_t* bytes);

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);

  /// A `_meta` entry; `json` must already be a JSON value.
  void Meta(const std::string& key, const std::string& json);
  void MetaNumber(const std::string& key, double value) {
    Meta(key, JsonNumber(value));
  }
  void MetaString(const std::string& key, const std::string& value) {
    Meta(key, JsonString(value));
  }
  void MetaSamples(const std::string& key, const std::vector<double>& values);

  /// One operation (publish, update, request, audit...) was attempted.
  void Attempt(uint64_t count = 1) { attempted_ += count; }
  /// An operation failed or a check did not hold: counted, logged to
  /// stderr, and the run is marked incorrect.
  void Fail(const std::string& why);

  /// A check is an operation too: counted, and failed unless `ok`.
  /// Returns `ok`.
  bool Check(bool ok, const std::string& why) {
    Attempt();
    if (!ok) Fail(why);
    return ok;
  }

  bool correct() const { return failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The full result: verdict, tallies, metrics, failures and `_meta`.
  std::string FullJson() const;
  /// The contract line: exactly correct, attempted, failed and metrics.
  std::string FinalLine() const;

 private:
  std::string MetricsJson() const;

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace diva_bench

#endif  // DIVA_BENCH_REPORT_H_
