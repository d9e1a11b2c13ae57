#ifndef DIVA_COMMON_STATUS_H_
#define DIVA_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace diva {

/// Machine-readable failure category carried by a Status.
enum class StatusCode {
  kOk = 0,
  /// Malformed input (bad CSV, unparsable constraint, invalid schema).
  kInvalidArgument,
  /// A referenced entity (attribute, file, value) does not exist.
  kNotFound,
  /// The requested result provably does not exist (e.g., no diverse
  /// k-anonymous relation for the given (R, Sigma, k)).
  kInfeasible,
  /// Internal invariant violation surfaced as an error instead of a crash.
  kInternal,
  /// I/O failure reading or writing a file.
  kIoError,
  /// A wall-clock deadline (DivaOptions::deadline_ms, --deadline-ms)
  /// expired before the operation finished. In non-strict pipelines this
  /// degrades to a best-effort result instead of surfacing as an error.
  kDeadlineExceeded,
  /// The service cannot take the request right now (admission control
  /// predicted a deadline overrun, the queue is full, or the server is
  /// draining). Transient by definition: retrying after a backoff is the
  /// expected client response (see common/backoff.h).
  kUnavailable,
};

/// Returns a stable human-readable name such as "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload. Cheap to copy
/// in the OK case (no allocation); carries code + message otherwise.
///
/// This mirrors the Status idiom used across database engines (Arrow,
/// RocksDB, LevelDB): no exceptions cross the public API.
///
/// [[nodiscard]]: silently dropping a Status hides failures, so every
/// function returning one by value warns unless the caller consumes it
/// (the build promotes that warning to an error). A deliberate discard —
/// rare — is a bare `(void)` cast with a comment giving the reason:
/// `(void)RemoveStaleFile(path);  // best effort: a leftover is harmless`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

namespace internal {

/// Extracts the Status of any "status-like" expression so that
/// DIVA_RETURN_IF_ERROR accepts both Status and Result<T> operands.
/// The Result<T> overload lives in common/result.h.
inline Status ToStatus(Status status) { return status; }

}  // namespace internal
}  // namespace diva

/// Propagates the error of a Status (or Result<T>) expression to the
/// caller; evaluates `expr` exactly once. The canonical early-return
/// macro for this codebase:
///
///   DIVA_RETURN_IF_ERROR(WriteCsvFile(relation, path));
#define DIVA_RETURN_IF_ERROR(expr)                           \
  do {                                                       \
    ::diva::Status _diva_st =                                \
        ::diva::internal::ToStatus((expr));                  \
    if (!_diva_st.ok()) return _diva_st;                     \
  } while (false)

#endif  // DIVA_COMMON_STATUS_H_
