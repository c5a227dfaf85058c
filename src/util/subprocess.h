// Minimal subprocess supervision: fork/exec a child, poll or wait for its
// exit status, and kill it when a wall-clock deadline expires.
//
// This is the process-level analogue of ThreadPool: the orchestration layer
// (src/orchestrate) dispatches entrace_shard workers through it and needs
// exactly three things a popen()-style API does not give — a bounded wait
// that leaves a still-running child alive, the distinction between "exited
// with code" and "died on signal" (a crashed worker and a deadline kill are
// different faults), and a kill that cannot leak a zombie.  stdout/stderr
// are inherited; workers talk to the scheduler through files (.esnap
// snapshots), not pipes.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace entrace::util {

// How a child ended.  Exactly one of exited/signaled is true once the
// process has been reaped.
struct ExitStatus {
  bool exited = false;    // normal termination
  int exit_code = -1;     // valid when exited
  bool signaled = false;  // killed by a signal
  int term_signal = 0;    // valid when signaled

  bool success() const { return exited && exit_code == 0; }
};

class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();  // kills and reaps a still-running child (no zombies)

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  // fork + execv of argv (argv[0] is the binary path).  Throws
  // std::runtime_error when fork itself fails; an exec failure in the child
  // surfaces as exit code 127 (the shell convention), not an exception.
  static Subprocess spawn(const std::vector<std::string>& argv);

  // Non-blocking reap: the child's status if it has exited, std::nullopt
  // while it is still running.  Idempotent after the child is reaped.
  std::optional<ExitStatus> poll();

  // Blocking reap.
  ExitStatus wait();

  // Poll until the child exits or `seconds` of wall clock elapse
  // (std::nullopt on timeout; the child keeps running).
  std::optional<ExitStatus> wait_for(double seconds);

  // SIGKILL + blocking reap.  Safe to call on an already-exited child (the
  // original exit status is returned).
  ExitStatus kill_and_wait();

  bool running();
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  std::optional<ExitStatus> status_;
};

}  // namespace entrace::util
