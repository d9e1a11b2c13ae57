#include "serve/client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace diva {
namespace serve {

Result<Client> Client::Connect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status status = Status::Unavailable("connect to " + host + ":" +
                                        std::to_string(port) + " failed: " +
                                        std::strerror(errno));
    ::close(fd);
    return status;
  }
  // No call may block forever: a server that dies (or drains) without
  // answering surfaces as a timed-out read — kUnavailable via Call —
  // instead of a wedged client.
  timeval timeout;
  timeout.tv_sec = 30;
  timeout.tv_usec = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  // Frames are single writes answered by the peer, so Nagle only ever
  // delays them (see WriteFrame).
  int nodelay = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return Client(fd);
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Response> Client::Call(const Request& request) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  Status written = WriteFrame(fd_, EncodeRequest(request));
  if (!written.ok()) {
    // A send into a connection the server shed reads as retryable.
    return Status::Unavailable("request write failed: " + written.message());
  }
  auto frame = ReadFrame(fd_);
  if (!frame.ok()) {
    // Any hangup before the response — clean EOF (NotFound) or a reset
    // (the acceptor sheds by closing connections whose request bytes it
    // never read, which the kernel reports as ECONNRESET) — means the
    // server dropped this call without failing it. Retryable.
    if (frame.status().code() == StatusCode::kNotFound ||
        frame.status().code() == StatusCode::kIoError) {
      return Status::Unavailable("server closed the connection (shed): " +
                                 frame.status().message());
    }
    return frame.status();
  }
  return ParseResponse(*frame);
}

}  // namespace serve
}  // namespace diva
