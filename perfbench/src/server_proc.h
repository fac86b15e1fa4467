// The served stack in a process of its own, and the guard that makes sure
// it never outlives the run that started it.
//
// `perfbench serve` builds the Stack, starts serve::Server on an ephemeral
// loopback port, prints a hello (port, pid, the event-loop thread id and
// the partition's region rects) and then answers line commands on stdin:
// `stats` prints the server counters and per-type residence p50s, `quit`
// (or EOF) stops the server and prints the final counters, including the
// engines' own, which are only safe to read once the loop has stopped.
//
// Lifetime: the child asks the kernel for SIGKILL when its parent dies
// (PR_SET_PDEATHSIG) and exits at once if the parent is already gone; the
// parent kills and reaps the child from ServerProcess's destructor, from
// an atexit hook (a failed check that calls std::exit) and from its
// SIGINT/SIGTERM/SIGHUP handlers.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model.h"

namespace pb {

using Stats = std::map<std::string, double>;

struct ServerHello {
  std::uint16_t port = 0;
  pid_t pid = -1;
  pid_t loop_tid = -1;
  std::vector<RegionRect> regions;
};

class ServerProcess {
 public:
  /// Forks and execs `exe serve`.  Throws on failure.
  explicit ServerProcess(const std::string& exe);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the child printed its hello.
  ServerHello read_hello();
  /// Sends one command and parses the `key=value` line it answers.
  Stats command(const std::string& cmd);
  /// After `quit`: waits for the child to exit; true when it exited 0.
  bool wait_exit();

 private:
  std::string read_line();
  void kill_and_reap();

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

/// Entry point of `perfbench serve`.
int serve_main(int argc, char** argv);

/// CPU seconds (user + system) of a process or one of its threads, read
/// from /proc; -1 when unreadable.
double proc_cpu_s(pid_t pid, pid_t tid = -1);
/// Peak resident set (VmHWM) of a process in MiB; -1 when unreadable.
double proc_peak_rss_mb(pid_t pid);
/// True while `pid` exists and is not a zombie.
bool proc_alive(pid_t pid);

}  // namespace pb
