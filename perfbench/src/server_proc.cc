#include "server_proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "serve/server.h"
#include "stack.h"

namespace pb {

namespace {

/// The one server child of this process, for the exit and signal paths.
volatile pid_t g_child = -1;

void kill_child_now() {
  const pid_t pid = g_child;
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  g_child = -1;
}

void on_signal(int sig) {
  kill_child_now();
  ::_exit(128 + sig);
}

void install_guards() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::atexit(kill_child_now);
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

std::set<pid_t> list_tids() {
  std::set<pid_t> out;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') out.insert(std::atoi(e->d_name));
    }
    ::closedir(d);
  }
  return out;
}

void put(std::ostringstream& os, const char* key, double v) {
  os << ' ' << key << '=' << v;
}

void print_server_stats(std::ostringstream& os, const geogrid::serve::Server& s) {
  using geogrid::net::MsgType;
  const auto c = s.counters();
  put(os, "accepted", static_cast<double>(c.accepted));
  put(os, "frames_in", static_cast<double>(c.frames_in));
  put(os, "updates_in", static_cast<double>(c.updates_in));
  put(os, "locates_in", static_cast<double>(c.locates_in));
  put(os, "ranges_in", static_cast<double>(c.ranges_in));
  put(os, "nearests_in", static_cast<double>(c.nearests_in));
  put(os, "subscribes_in", static_cast<double>(c.subscribes_in));
  put(os, "acks_out", static_cast<double>(c.acks_out));
  put(os, "replies_out", static_cast<double>(c.replies_out));
  put(os, "notifies_out", static_cast<double>(c.notifies_out));
  put(os, "ingest_flushes", static_cast<double>(c.ingest_flushes));
  put(os, "size_flushes", static_cast<double>(c.size_flushes));
  put(os, "deadline_flushes", static_cast<double>(c.deadline_flushes));
  put(os, "forced_flushes", static_cast<double>(c.forced_flushes));
  put(os, "query_flushes", static_cast<double>(c.query_flushes));
  put(os, "backpressure_gates", static_cast<double>(c.backpressure_gates));
  put(os, "outbuf_gates", static_cast<double>(c.outbuf_gates));
  put(os, "slow_consumer_closes", static_cast<double>(c.slow_consumer_closes));
  put(os, "malformed_frames", static_cast<double>(c.malformed_frames));
  put(os, "unexpected_messages", static_cast<double>(c.unexpected_messages));
  put(os, "res_update_p50_us",
      s.latency(MsgType::kLocationUpdate).percentile_micros(50));
  put(os, "res_locate_p50_us",
      s.latency(MsgType::kLocateRequest).percentile_micros(50));
  put(os, "res_range_p50_us",
      s.latency(MsgType::kLocationQuery).percentile_micros(50));
  put(os, "res_knn_p50_us",
      s.latency(MsgType::kNearestRequest).percentile_micros(50));
}

}  // namespace

// ---- the child -------------------------------------------------------------

int serve_main(int argc, char** argv) {
  pid_t parent = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--parent") == 0) parent = std::atoi(argv[i + 1]);
  }
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (parent <= 0 || ::getppid() != parent) return 3;

  Stack stack;
  const std::set<pid_t> before = list_tids();
  geogrid::serve::Server server(
      {stack.directory, stack.queries, stack.subscriptions,
       stack.notifications},
      geogrid::core::ServeOptions{});
  server.start();
  pid_t loop_tid = -1;
  for (const pid_t t : list_tids()) {
    if (!before.contains(t)) loop_tid = t;
  }

  std::ostringstream hello;
  hello.precision(17);
  const auto& regions = stack.sim.partition().regions();
  hello << "hello " << server.port() << ' ' << ::getpid() << ' ' << loop_tid
        << ' ' << regions.size() << '\n';
  for (const auto& [id, region] : regions) {
    char line[160];
    std::snprintf(line, sizeof line, "%u %a %a %a %a\n", id.value,
                  region.rect.x, region.rect.y, region.rect.width,
                  region.rect.height);
    hello << line;
  }
  std::fputs(hello.str().c_str(), stdout);
  std::fflush(stdout);

  char line[64];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    if (std::strncmp(line, "stats", 5) == 0) {
      std::ostringstream os;
      os.precision(17);
      os << "stats";
      print_server_stats(os, server);
      os << '\n';
      std::fputs(os.str().c_str(), stdout);
      std::fflush(stdout);
    } else {
      break;  // quit
    }
  }
  server.stop();

  // The loop thread is joined: the engines are safe to read from here.
  std::ostringstream os;
  os.precision(17);
  os << "final";
  print_server_stats(os, server);
  const auto& d = stack.directory.counters();
  put(os, "dir_applied", static_cast<double>(d.updates_applied));
  put(os, "dir_stale", static_cast<double>(d.updates_stale));
  put(os, "dir_handoffs", static_cast<double>(d.handoffs));
  put(os, "dir_batches", static_cast<double>(d.batches));
  put(os, "dir_snapshots_published", static_cast<double>(d.snapshots_published));
  put(os, "dir_slices_copied", static_cast<double>(d.snapshot_slices_copied));
  put(os, "dir_users", static_cast<double>(stack.directory.size()));
  const auto& n = stack.notifications.counters();
  put(os, "ne_drains", static_cast<double>(n.drains));
  put(os, "ne_candidates", static_cast<double>(n.delta_users));
  put(os, "ne_notifications", static_cast<double>(n.notifications));
  const auto& q = stack.queries.counters();
  put(os, "qe_batches", static_cast<double>(q.batches));
  put(os, "qe_queries", static_cast<double>(q.queries));
  os << '\n';
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
  return 0;
}

// ---- the parent ------------------------------------------------------------

ServerProcess::ServerProcess(const std::string& exe) {
  install_guards();
  int in[2];
  int out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw std::runtime_error("pipe2 failed");
  }
  const pid_t parent = ::getpid();
  const std::string parent_s = std::to_string(parent);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::execl(exe.c_str(), exe.c_str(), "serve", "--parent", parent_s.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  g_child = pid;
  ::close(in[0]);
  ::close(out[1]);
  to_child_ = in[1];
  from_child_ = out[0];
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = from_child_ = -1;
  if (pid_ > 0) {
    kill_child_now();
    pid_ = -1;
  }
}

std::string ServerProcess::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    pollfd p{from_child_, POLLIN, 0};
    const int ready = ::poll(&p, 1, 120'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw CheckFailure("server process did not answer");
    char buf[65536];
    const ssize_t n = ::read(from_child_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw CheckFailure("server process exited early");
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

ServerHello ServerProcess::read_hello() {
  ServerHello h;
  std::istringstream head(read_line());
  std::string tag;
  std::size_t count = 0;
  int port = 0;
  head >> tag >> port >> h.pid >> h.loop_tid >> count;
  if (tag != "hello" || port <= 0) throw CheckFailure("bad server hello");
  h.port = static_cast<std::uint16_t>(port);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string line = read_line();
    RegionRect r;
    unsigned id = 0;
    if (std::sscanf(line.c_str(), "%u %la %la %la %la", &id, &r.rect.x,
                    &r.rect.y, &r.rect.width, &r.rect.height) != 5) {
      throw CheckFailure("bad region line from server");
    }
    r.id = id;
    h.regions.push_back(r);
  }
  std::sort(h.regions.begin(), h.regions.end(),
            [](const RegionRect& a, const RegionRect& b) { return a.id < b.id; });
  return h;
}

Stats ServerProcess::command(const std::string& cmd) {
  const std::string line = cmd + "\n";
  if (::write(to_child_, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    throw CheckFailure("cannot write to the server process");
  }
  std::istringstream in(read_line());
  std::string tok;
  in >> tok;
  Stats out;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
  }
  return out;
}

bool ServerProcess::wait_exit() {
  int status = 0;
  pid_t r;
  while ((r = ::waitpid(pid_, &status, 0)) < 0 && errno == EINTR) {
  }
  if (r == pid_) {
    pid_ = -1;
    g_child = -1;
  }
  return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- /proc ----------------------------------------------------------------

double proc_cpu_s(pid_t pid, pid_t tid) {
  const std::string path =
      tid > 0 ? "/proc/" + std::to_string(pid) + "/task/" +
                    std::to_string(tid) + "/stat"
              : "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream f(path);
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  const std::size_t close = s.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream in(s.substr(close + 2));
  std::string field;
  // Fields after the command: state(3) ... utime(14) stime(15).
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

bool proc_alive(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  const std::size_t close = s.rfind(')');
  if (close == std::string::npos || close + 2 >= s.size()) return false;
  return s[close + 2] != 'Z' && s[close + 2] != 'X';
}

}  // namespace pb
