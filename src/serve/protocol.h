#ifndef DIVA_SERVE_PROTOCOL_H_
#define DIVA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace diva {
namespace serve {

/// Wire format of diva_serverd (docs/serving.md, "Wire protocol").
///
/// Transport: length-prefixed frames over a stream socket. Each frame is
/// a 4-byte big-endian payload length followed by that many bytes of
/// UTF-8 text. One request frame yields exactly one response frame;
/// requests on one connection are processed strictly in order. Each
/// frame goes out in one write and both ends set TCP_NODELAY, so no
/// frame waits on Nagle for the peer's delayed ACK.
///
/// Payload: a header line, then an optional body separated by one blank
/// line. Requests:  `verb key=value key=value ...`. Responses:
/// `ok key=value ...` or `error code=<StatusCode> msg=<rest of line>`.
/// `msg` consumes everything after `msg=` so error text may contain
/// spaces; every other value is a single token (no spaces, no newlines).

/// Frames above this size are rejected as corrupt rather than buffered —
/// a stray client writing garbage must not be able to balloon the
/// server's memory. Callers can pass a tighter cap.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 26;  // 64 MiB

/// Writes one frame as a single gathered write (header and payload as
/// two iovecs, so the payload is never copied). Handles short writes and
/// EINTR; never raises SIGPIPE (the peer hanging up surfaces as an
/// IoError Status).
[[nodiscard]] Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame. A clean EOF before any length byte returns NotFound
/// (the sentinel for "peer closed between frames" — not an error for a
/// server); EOF mid-frame or any read error returns IoError. Failpoint:
/// serve.frame.read.
[[nodiscard]] Result<std::string> ReadFrame(
    int fd, size_t max_bytes = kDefaultMaxFrameBytes);

/// A parsed request. Params keep deterministic (sorted) iteration order
/// so encoded requests are byte-stable — the loadgen replay driver
/// depends on that.
struct Request {
  std::string verb;
  std::map<std::string, std::string> params;
  std::string body;

  /// Param accessors with defaults; Int variants return `fallback` on
  /// missing keys but error on unparsable values.
  std::string Param(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] Result<int64_t> IntParam(const std::string& key,
                                         int64_t fallback) const;
  [[nodiscard]] Result<double> DoubleParam(const std::string& key,
                                           double fallback) const;
};

/// Decodes a request payload. Failpoint: serve.request.parse. Errors are
/// InvalidArgument naming the offending token.
[[nodiscard]] Result<Request> ParseRequest(const std::string& payload);

std::string EncodeRequest(const Request& request);

/// A response: `ok` with key=value fields, or an error carrying the
/// StatusCode and message of the Status that produced it.
struct Response {
  bool ok = true;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::map<std::string, std::string> fields;
  std::string body;

  static Response Ok() { return Response{}; }
  static Response Error(const Status& status);

  /// Round-trips an error response back into the Status it encodes.
  Status ToStatus() const;

  std::string Field(const std::string& key, const std::string& fallback) const;
};

std::string EncodeResponse(const Response& response);

[[nodiscard]] Result<Response> ParseResponse(const std::string& payload);

/// Parses a StatusCode name as produced by StatusCodeToString
/// ("Unavailable", "IoError", ...). Unknown names map to kInternal so a
/// response from a newer server still surfaces as an error.
StatusCode ParseStatusCodeName(const std::string& name);

}  // namespace serve
}  // namespace diva

#endif  // DIVA_SERVE_PROTOCOL_H_
