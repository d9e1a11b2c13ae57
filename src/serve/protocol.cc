#include "serve/protocol.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include "common/failpoint.h"

namespace diva {
namespace serve {

namespace {

/// Sends every byte of `iov[0..count)` as one gathered sendmsg() per
/// attempt, advancing past short writes and retrying EINTR. MSG_NOSIGNAL
/// turns a hung-up peer into EPIPE instead of a process-killing SIGPIPE.
Status SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr message;
    std::memset(&message, 0, sizeof(message));
    message.msg_iov = iov;
    message.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

/// recv() into `data`, looping over short reads and EINTR. Returns the
/// bytes read; fewer than `size` only at EOF.
Result<size_t> RecvAll(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) break;  // EOF
    got += static_cast<size_t>(n);
  }
  return got;
}

/// Single-token values keep the header line splittable on spaces.
bool IsToken(const std::string& value) {
  for (char c : value) {
    if (c == ' ' || c == '\n' || c == '\r') return false;
  }
  return true;
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>((size >> 24) & 0xff),
                    static_cast<char>((size >> 16) & 0xff),
                    static_cast<char>((size >> 8) & 0xff),
                    static_cast<char>(size & 0xff)};
  // Header and payload leave in one write: two send()s are the
  // write-write-read pattern where Nagle holds the payload until the
  // peer's delayed ACK (~40 ms) for the header arrives.
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return SendAll(fd, iov, 2);
}

Result<std::string> ReadFrame(int fd, size_t max_bytes) {
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("serve.frame.read"));
  char header[4];
  DIVA_ASSIGN_OR_RETURN(size_t header_got, RecvAll(fd, header, sizeof(header)));
  if (header_got == 0) {
    // Clean close between frames: the sentinel callers test for.
    return Status::NotFound("peer closed the connection");
  }
  if (header_got < sizeof(header)) {
    return Status::IoError("connection closed mid frame header");
  }
  const uint32_t size = (static_cast<uint32_t>(static_cast<unsigned char>(
                             header[0]))
                         << 24) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(
                             header[1]))
                         << 16) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(
                             header[2]))
                         << 8) |
                        static_cast<uint32_t>(static_cast<unsigned char>(
                            header[3]));
  if (size > max_bytes) {
    return Status::IoError("frame of " + std::to_string(size) +
                           " bytes exceeds the " + std::to_string(max_bytes) +
                           "-byte cap");
  }
  std::string payload(size, '\0');
  if (size > 0) {
    DIVA_ASSIGN_OR_RETURN(size_t got, RecvAll(fd, payload.data(), size));
    if (got < size) return Status::IoError("connection closed mid frame body");
  }
  return payload;
}

std::string Request::Param(const std::string& key,
                           const std::string& fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

Result<int64_t> Request::IntParam(const std::string& key,
                                  int64_t fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("param " + key + "='" + it->second +
                                   "' is not an integer");
  }
  return static_cast<int64_t>(value);
}

Result<double> Request::DoubleParam(const std::string& key,
                                    double fallback) const {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("param " + key + "='" + it->second +
                                   "' is not a number");
  }
  return value;
}

Result<Request> ParseRequest(const std::string& payload) {
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("serve.request.parse"));
  Request request;
  size_t header_end = payload.find('\n');
  std::string header =
      header_end == std::string::npos ? payload : payload.substr(0, header_end);
  if (header_end != std::string::npos) {
    // Body starts after the blank separator line (header \n \n body).
    size_t body_start = header_end + 1;
    if (body_start < payload.size() && payload[body_start] == '\n') {
      ++body_start;
    }
    request.body = payload.substr(body_start);
  }
  size_t pos = 0;
  bool first = true;
  while (pos < header.size()) {
    size_t space = header.find(' ', pos);
    if (space == std::string::npos) space = header.size();
    std::string token = header.substr(pos, space - pos);
    pos = space + 1;
    if (token.empty()) continue;
    if (first) {
      request.verb = token;
      first = false;
      continue;
    }
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("request param '" + token +
                                     "' is not key=value");
    }
    request.params[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (request.verb.empty()) {
    return Status::InvalidArgument("request has no verb");
  }
  return request;
}

std::string EncodeRequest(const Request& request) {
  std::string out = request.verb;
  for (const auto& [key, value] : request.params) {
    out += ' ';
    out += key;
    out += '=';
    out += IsToken(value) ? value : std::string("<non-token>");
  }
  if (!request.body.empty()) {
    out += "\n\n";
    out += request.body;
  }
  return out;
}

Response Response::Error(const Status& status) {
  Response response;
  response.ok = false;
  response.code = status.code();
  response.message = status.message();
  return response;
}

Status Response::ToStatus() const {
  if (ok) return Status::OK();
  return Status(code, message);
}

std::string Response::Field(const std::string& key,
                            const std::string& fallback) const {
  auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  if (response.ok) {
    out = "ok";
    for (const auto& [key, value] : response.fields) {
      out += ' ';
      out += key;
      out += '=';
      out += IsToken(value) ? value : std::string("<non-token>");
    }
  } else {
    // msg= is last and consumes the rest of the line, so the message may
    // contain spaces (but never a newline — that would open the body).
    std::string message = response.message;
    for (char& c : message) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out = std::string("error code=") + StatusCodeToString(response.code) +
          " msg=" + message;
  }
  if (!response.body.empty()) {
    out += "\n\n";
    out += response.body;
  }
  return out;
}

Result<Response> ParseResponse(const std::string& payload) {
  Response response;
  size_t header_end = payload.find('\n');
  std::string header =
      header_end == std::string::npos ? payload : payload.substr(0, header_end);
  if (header_end != std::string::npos) {
    size_t body_start = header_end + 1;
    if (body_start < payload.size() && payload[body_start] == '\n') {
      ++body_start;
    }
    response.body = payload.substr(body_start);
  }
  if (header.rfind("ok", 0) == 0 &&
      (header.size() == 2 || header[2] == ' ')) {
    response.ok = true;
    size_t pos = 2;
    while (pos < header.size()) {
      size_t space = header.find(' ', pos);
      if (space == std::string::npos) space = header.size();
      std::string token = header.substr(pos, space - pos);
      pos = space + 1;
      if (token.empty()) continue;
      size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("response field '" + token +
                                       "' is not key=value");
      }
      response.fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return response;
  }
  if (header.rfind("error ", 0) == 0) {
    response.ok = false;
    const std::string code_prefix = "error code=";
    if (header.rfind(code_prefix, 0) != 0) {
      return Status::InvalidArgument("error response missing code=");
    }
    size_t code_end = header.find(' ', code_prefix.size());
    if (code_end == std::string::npos) {
      return Status::InvalidArgument("error response missing msg=");
    }
    response.code =
        ParseStatusCodeName(header.substr(code_prefix.size(),
                                          code_end - code_prefix.size()));
    const std::string msg_prefix = "msg=";
    size_t msg_at = header.find(msg_prefix, code_end + 1);
    if (msg_at != code_end + 1) {
      return Status::InvalidArgument("error response missing msg=");
    }
    response.message = header.substr(msg_at + msg_prefix.size());
    return response;
  }
  return Status::InvalidArgument("response is neither ok nor error: '" +
                                 header.substr(0, 64) + "'");
}

StatusCode ParseStatusCodeName(const std::string& name) {
  static const StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kInfeasible,
      StatusCode::kInternal,
      StatusCode::kIoError,      StatusCode::kDeadlineExceeded,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace serve
}  // namespace diva
