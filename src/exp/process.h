// process.h -- fork/exec of helper processes and decoding of their
// fates. `dash_lab serve --agents N` spawns its local fleet agents
// as fresh instances of the running binary through these and reaps
// them when the grid completes.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace dash::exp {

/// How one child process ended.
struct WorkerStatus {
  bool exited = false;    ///< normal termination (any exit code)
  int exit_code = 0;
  bool signaled = false;  ///< killed by a signal
  int signal_no = 0;
  bool ok() const { return exited && exit_code == 0; }
  /// "ok" / "exit 2" / "killed by signal 9 (Killed)" / "wait failed".
  std::string describe() const;
};

/// Absolute path of the running binary (/proc/self/exe when
/// available, argv0 otherwise).
std::string current_executable(const char* argv0);

/// fork + exec `exe` with `args` (argv[0] is exe itself); returns the
/// child pid, throws std::runtime_error when fork fails.
pid_t spawn_process(const std::string& exe,
                    const std::vector<std::string>& args);

/// waitpid `pid` and decode its fate (exit code or killing signal).
WorkerStatus wait_process(pid_t pid);

}  // namespace dash::exp
