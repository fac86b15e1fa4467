// `perfbench selftest`: the checks must reject wrong answers, and the
// server process must not outlive a run that dies.
//
//   * the x-sorted range and kNN scans agree with the literal all-pairs
//     scans (ties in distance included);
//   * corrupted replies are rejected: a shifted range record, a stale
//     locate seq, a wrong ack region, a dropped or duplicated Notify, a
//     Notify at a position the user never reported;
//   * a run that aborts, exits from a failed check, or is sent SIGTERM
//     leaves no server process behind.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "model.h"
#include "server_proc.h"

namespace pb {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool rejects(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckFailure&) {
    return true;
  }
  return false;
}

void test_scans() {
  Rng rng(11);
  std::vector<RecordKey> pop;
  for (std::uint32_t u = 1; u <= 3000; ++u) {
    Point p{rng.uniform(0, 16), rng.uniform(0, 16)};
    if (u % 50 == 0) p = pop[rng.index(pop.size())].pos;  // exact ties
    pop.push_back({u, u % 7 + 1, p});
  }
  StaticIndex index;
  index.build(pop);
  bool range_ok = true, knn_ok = true;
  for (int i = 0; i < 300; ++i) {
    const Rect r{rng.uniform(-1, 15), rng.uniform(-1, 15), rng.uniform(0.1, 3),
                 rng.uniform(0.1, 3)};
    range_ok = range_ok && index.range(r) == brute_range(pop, r);
    const Point c = i % 10 == 0 ? pop[rng.index(pop.size())].pos
                                : Point{rng.uniform(0, 16), rng.uniform(0, 16)};
    knn_ok = knn_ok && index.nearest(c, 8) == brute_nearest(pop, c, 8);
  }
  // A record exactly on an edge: half-open, so only the east/north edges.
  const std::vector<RecordKey> edge = {{1, 1, {1.0, 1.5}}, {2, 1, {2.0, 1.5}}};
  StaticIndex e;
  e.build(edge);
  const auto hit = e.range(Rect{1.0, 1.0, 1.0, 1.0});
  expect(range_ok, "x-sorted range scan equals the all-pairs scan");
  expect(knn_ok, "kNN scan equals the all-pairs ranking by (distance, id)");
  expect(hit.size() == 1 && hit[0].user == 2,
         "range is half-open: west edge out, east edge in");
}

void test_corrupt_replies() {
  std::vector<RecordKey> want = {{3, 2, {1.25, 2.5}},
                                 {7, 1, {1.5, 2.75}},
                                 {9, 4, {1.75, 2.0}}};
  std::vector<RecordKey> shifted = want;
  shifted[1].pos.x += 1e-9;
  std::vector<RecordKey> off_by_one = {want[1], want[2], want[2]};
  expect(hash_records(shifted) != hash_records(want),
         "range reply with a shifted record is rejected");
  expect(hash_records(off_by_one) != hash_records(want),
         "range reply with records shifted by one slot is rejected");

  const LocateAnswer loc{true, 7, 5, {3.0, 4.0}, 12};
  LocateAnswer stale = loc;
  stale.seq = 4;
  expect(hash_locate(stale) != hash_locate(loc),
         "locate reply with a stale seq is rejected");

  // Bucketed region lookup agrees with the plain scan, edges included.
  {
    std::vector<RegionRect> tiles;
    std::uint32_t id = 1;
    for (double x = 0; x < 64; x += 64.0 / 24) {
      for (double y = 0; y < 64; y += 64.0 / 10) {
        tiles.push_back({id++, {x, y, 64.0 / 24, 64.0 / 10}});
      }
    }
    const RegionTable t(tiles);
    Rng rng(5);
    bool same = true;
    for (int i = 0; i < 20000; ++i) {
      Point p{rng.uniform(0, 64), rng.uniform(0, 64)};
      if (i % 4 == 0) p.x = tiles[rng.index(tiles.size())].rect.x;  // on an edge
      if (i % 8 == 0) p.y = tiles[rng.index(tiles.size())].rect.y;
      same = same && t.region_at(p) == t.region_at_bucketed(p);
    }
    expect(same, "bucketed region lookup equals the linear scan");
    const Rect& r0 = tiles[0].rect;
    expect(t.near_edge({r0.x + r0.width - 9e-10, r0.y + 1.0}, 1e-6) &&
               !t.near_edge({r0.x + 1.0, r0.y + 1.0}, 1e-6),
           "a point 1e-9 from a region edge is near it, a centre is not");
  }
  const RegionTable table({{1, {0, 0, 2, 2}}, {2, {2, 0, 2, 2}}});
  const std::vector<Point> at = {{2.5, 1.0}};
  expect(ack_region_matches(table, at, 2), "ack with the covering region passes");
  expect(!ack_region_matches(table, at, 1),
         "ack naming a neighbouring region is rejected");
}

void test_notifies() {
  // User 1 starts outside the areas, enters, moves inside, leaves.
  const std::vector<Report> reports = {{1, 1, {3.0, 3.0}},
                                       {1, 2, {0.5, 0.5}},
                                       {1, 3, {0.75, 0.625}},
                                       {1, 4, {3.0, 3.5}}};
  const std::vector<std::uint32_t> offsets = {0, 0, 4};
  const std::vector<std::uint32_t> by_user = {0, 1, 2, 3};
  const std::vector<Point> initial = {{}, {3.0, 3.0}};
  const std::vector<Point> final_pos = {{}, {3.0, 3.5}};
  const std::vector<std::uint32_t> movers = {1};
  const std::vector<std::uint8_t> isolated = {0, 1, 1, 1};
  std::vector<SubSpec> subs(3);
  subs[0] = {1, SubSpec::Kind::kRange, {0, 0, 1, 1}, 0, "range:1"};
  subs[1] = {2, SubSpec::Kind::kGeofence, {0, 0, 1, 1}, 0, "geofence:2"};
  subs[2] = {3, SubSpec::Kind::kFriend, {}, 1, "friend:1"};
  auto n = [&](std::uint64_t sub, const char* ev, std::uint32_t r) {
    const SubSpec& s = subs[sub - 1];
    return NotifyGot{sub, s.filter,
                     std::string(ev) + " u1 @(" + fixed6(reports[r].pos.x) +
                         ", " + fixed6(reports[r].pos.y) + ")",
                     0.0};
  };
  const std::vector<NotifyGot> legal = {
      n(1, "enter", 1), n(2, "enter", 1), n(3, "move", 1),
      n(1, "move", 2),  n(3, "move", 2),  n(1, "leave", 3),
      n(2, "leave", 3), n(3, "move", 3)};
  auto run = [&](const std::vector<NotifyGot>& stream) {
    NotifyChecker c(subs, reports, offsets, by_user, initial);
    for (const NotifyGot& g : stream) c.feed(g);
    c.finish(final_pos, movers, isolated);
  };
  expect(!rejects([&] { run(legal); }), "a legal notify stream passes");
  for (std::size_t drop = 0; drop < legal.size(); ++drop) {
    std::vector<NotifyGot> s = legal;
    s.erase(s.begin() + static_cast<std::ptrdiff_t>(drop));
    expect(rejects([&] { run(s); }),
           "dropping notify " + std::to_string(drop) + " is rejected");
  }
  for (std::size_t dup = 0; dup < legal.size(); ++dup) {
    std::vector<NotifyGot> s = legal;
    s.insert(s.begin() + static_cast<std::ptrdiff_t>(dup), legal[dup]);
    expect(rejects([&] { run(s); }),
           "duplicating notify " + std::to_string(dup) + " is rejected");
  }
  std::vector<NotifyGot> moved = legal;
  moved[3].payload = "move u1 @(0.700000, 0.625000)";
  expect(rejects([&] { run(moved); }),
         "a notify at an unreported position is rejected");
  std::vector<NotifyGot> wrong_topic = legal;
  wrong_topic[0].topic = "geofence:1";
  expect(rejects([&] { run(wrong_topic); }),
         "a notify with the wrong topic is rejected");
}

/// Forks a stand-in for a run: it starts a server process, reports its pid
/// and then dies through `how`.  The server must be gone soon after.
void test_no_orphan(const std::string& exe, const char* label,
                    const std::function<void()>& how) {
  int fds[2];
  if (::pipe(fds) != 0) {
    expect(false, "pipe for the orphan test");
    return;
  }
  const pid_t victim = ::fork();
  if (victim == 0) {
    ::close(fds[0]);
    ServerProcess server(exe);
    const ServerHello hello = server.read_hello();
    const pid_t pid = hello.pid;
    if (::write(fds[1], &pid, sizeof pid) != sizeof pid) ::_exit(9);
    how();
    ::_exit(0);
  }
  ::close(fds[1]);
  pid_t server = -1;
  const bool got = ::read(fds[0], &server, sizeof server) == sizeof server;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(victim, &status, 0);
  bool gone = false;
  for (int i = 0; got && i < 200 && !gone; ++i) {
    // As the subreaper this process inherits an orphaned server; reap it.
    while (::waitpid(-1, &status, WNOHANG) > 0) {
    }
    gone = !proc_alive(server);
    if (!gone) ::usleep(50'000);
  }
  expect(got && gone, std::string("no server process survives a run that ") +
                          label);
}

}  // namespace

int selftest_main(const std::string& exe) {
  std::fprintf(stderr, "perfbench selftest\n");
  test_scans();
  test_corrupt_replies();
  test_notifies();
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  test_no_orphan(exe, "aborts", [] { std::abort(); });
  test_no_orphan(exe, "exits from a failed check", [] { std::exit(1); });
  test_no_orphan(exe, "is sent SIGTERM", [] { ::raise(SIGTERM); });
  test_no_orphan(exe, "is killed with SIGKILL", [] { ::raise(SIGKILL); });
  std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb
