#ifndef DIVA_COMMON_FAILPOINT_H_
#define DIVA_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace diva {
namespace failpoint {

/// Fault-injection sites for exercising error paths systematically.
///
/// A failpoint is a named place in the library where a test (or the
/// DIVA_FAILPOINTS environment variable) can deterministically inject an
/// error Status. Sites are spelled
///
///     DIVA_RETURN_IF_ERROR(DIVA_FAIL("csv.read.record"));
///
/// and cost one relaxed atomic load when nothing is armed, so they are
/// safe on per-row paths. Every site name must also appear in the
/// kKnownSites table in failpoint.cc; tests/fault_injection_test.cc
/// sweeps that table through the full pipeline and fails on any drift
/// between the table and the instrumented sites.
///
/// Activation (pick one):
///   - env:  DIVA_FAILPOINTS="csv.read.record=io@hit:3,audit.run=internal"
///     parsed by ArmFromEnv() at the first Check() call;
///   - test API: Arm("csv.read.record", StatusCode::kIoError, 3).
///
/// Triggers are deterministic hit counts: the site fires on exactly its
/// N-th hit (1-based, default 1) and passes on every other hit. Hits are
/// counted per site since the last Reset().

/// Returns OK unless `name` is armed and this hit is its trigger hit.
/// Also counts the hit when counting is enabled (see SetCounting).
[[nodiscard]] Status Check(const char* name);

/// False while no site is armed and counting is off: every Check then
/// returns OK and counts nothing, so a loop that checks once per item
/// (the CSV reader and writer, per record) may skip its checks.
bool Active();

/// Arms `name` to return `code` on its `trigger_hit`-th hit (1-based).
/// Rearming a site resets its hit count and fired latch.
void Arm(const std::string& name, StatusCode code, uint64_t trigger_hit = 1);

/// Parses a DIVA_FAILPOINTS-style spec ("name=code[@hit:N],...") and arms
/// every entry. Codes match StatusCodeToString case-insensitively, with
/// '-'/'_' ignored ("io-error", "IoError" and "io" all mean kIoError).
/// Validation is strict and all-or-nothing: a malformed field or a site
/// name absent from KnownFailpoints() returns kInvalidArgument naming the
/// entry index, its column in the spec, and the offending field — and
/// arms nothing (a half-armed chaos spec would silently test nothing).
[[nodiscard]] Status ArmFromSpec(const std::string& spec);

/// Disarms every site, zeroes hit counters, and disables counting.
void Reset();

/// Hits recorded for `name` since the last Reset. Counting happens while
/// any site is armed or SetCounting(true) is in effect.
uint64_t HitCount(const std::string& name);

/// Forces hit counting even with nothing armed (coverage accounting in
/// tests). Off by default so production runs pay only one atomic load.
void SetCounting(bool enabled);

/// Names of every site hit at least once since the last Reset, sorted.
/// Only meaningful while counting (or an armed site) keeps hits recorded;
/// fault_injection_test checks it against KnownFailpoints() so an
/// instrumented site missing from the table cannot slip through.
std::vector<std::string> HitSites();

/// Every site name compiled into the library, sorted ascending.
std::vector<std::string> KnownFailpoints();

}  // namespace failpoint
}  // namespace diva

/// A fault-injection site. Evaluates to a Status: OK in normal operation,
/// the armed error when the named failpoint triggers. Consume it like any
/// other Status (typically DIVA_RETURN_IF_ERROR).
#define DIVA_FAIL(name) ::diva::failpoint::Check(name)

#endif  // DIVA_COMMON_FAILPOINT_H_
