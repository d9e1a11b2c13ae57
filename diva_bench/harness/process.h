#ifndef DIVA_BENCH_PROCESS_H_
#define DIVA_BENCH_PROCESS_H_

// Child processes of the harness: the setup probe (this binary's
// `ready` mode) and the serving daemon. Every child is waited for
// before the harness exits.

#include <string>
#include <vector>

#include "common/result.h"

namespace diva_bench {

/// Directory holding this executable (the build's output directory).
std::string SelfDir();

/// A running child whose stdout or stderr (`from_fd`) is piped back.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawns `argv` (argv[0] is a path) with fd `capture` (1 or 2)
  /// piped; the other output goes to /dev/null.
  [[nodiscard]] diva::Status Spawn(const std::vector<std::string>& argv,
                                   int capture);

  /// Reads piped lines until one contains `marker` (returned), the pipe
  /// closes, or `timeout_s` passes.
  [[nodiscard]] diva::Result<std::string> WaitForLine(const std::string& marker,
                                                      double timeout_s);

  /// Signals `signal_number`, drains the pipe and reaps the child; a
  /// child still alive after `timeout_s` is killed. Returns the exit
  /// status (128 + signal when killed by one).
  int Stop(int signal_number, double timeout_s);

  int pid() const { return pid_; }

  /// User plus system CPU seconds of the last reaped child, all threads.
  double cpu_seconds() const { return cpu_seconds_; }

 private:
  int pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
  double cpu_seconds_ = 0.0;
};

}  // namespace diva_bench

#endif  // DIVA_BENCH_PROCESS_H_
