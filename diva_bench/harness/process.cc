#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "report.h"

extern char** environ;

namespace diva_bench {

using diva::Status;

std::string SelfDir() {
  std::error_code error;
  auto exe = std::filesystem::read_symlink("/proc/self/exe", error);
  return error ? "." : exe.parent_path().string();
}

Child::~Child() {
  if (pid_ > 0) Stop(SIGKILL, 5.0);
}

Status Child::Spawn(const std::vector<std::string>& argv, int capture) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IoError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], capture);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  posix_spawn_file_actions_addopen(&actions, capture == 1 ? 2 : 1,
                                   "/dev/null", O_WRONLY, 0);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::IoError("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  pid_ = pid;
  fd_ = fds[0];
  buffer_.clear();
  return Status::OK();
}

diva::Result<std::string> Child::WaitForLine(const std::string& marker,
                                             double timeout_s) {
  const double start = diva::MonotonicSeconds();
  while (true) {
    size_t newline;
    while ((newline = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (line.find(marker) != std::string::npos) return line;
    }
    const double left = timeout_s - Since(start);
    if (left <= 0) return Status::DeadlineExceeded("no '" + marker + "' line");
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t got = read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return Status::IoError("child closed before '" + marker + "'");
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

int Child::Stop(int signal_number, double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, signal_number);
  const double start = diva::MonotonicSeconds();
  bool killed = false;
  int status = 0;
  rusage usage{};
  while (true) {
    if (fd_ >= 0) {
      // Drain so a chatty child never blocks on a full pipe.
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, 20) > 0) {
        char chunk[4096];
        const ssize_t got = read(fd_, chunk, sizeof(chunk));
        if (got == 0) {
          close(fd_);
          fd_ = -1;
        }
      }
    } else {
      usleep(5000);
    }
    const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) break;
    if (!killed && Since(start) > timeout_s) {
      kill(pid_, SIGKILL);
      killed = true;
    }
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  pid_ = -1;
  cpu_seconds_ = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

}  // namespace diva_bench
