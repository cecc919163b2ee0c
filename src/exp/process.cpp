#include "exp/process.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace dash::exp {

pid_t spawn_process(const std::string& exe,
                    const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    // Only reached when exec failed; report on the inherited stderr
    // and die without running atexit handlers twice.
    std::string msg = "exec of '" + exe + "' failed: " +
                      std::strerror(errno) + "\n";
    [[maybe_unused]] const auto n =
        ::write(STDERR_FILENO, msg.data(), msg.size());
    ::_exit(127);
  }
  return pid;
}

WorkerStatus wait_process(pid_t pid) {
  WorkerStatus ws;
  int st = 0;
  if (::waitpid(pid, &st, 0) < 0) {
    return ws;  // neither exited nor signaled: describe() says so
  }
  if (WIFEXITED(st)) {
    ws.exited = true;
    ws.exit_code = WEXITSTATUS(st);
  } else if (WIFSIGNALED(st)) {
    ws.signaled = true;
    ws.signal_no = WTERMSIG(st);
  }
  return ws;
}

std::string WorkerStatus::describe() const {
  if (exited) {
    return exit_code == 0 ? "ok" : "exit " + std::to_string(exit_code);
  }
  if (signaled) {
    const char* name = ::strsignal(signal_no);
    return "killed by signal " + std::to_string(signal_no) +
           (name != nullptr ? " (" + std::string(name) + ")" : "");
  }
  return "wait failed";
}

std::string current_executable(const char* argv0) {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return self.string();
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace dash::exp
