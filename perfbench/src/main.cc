// perfbench: the wire-level benchmark of the serving edge.
//
//   perfbench run --workload <ingest|query|live> --seed <n> --seconds <s>
//                 --trace <0|1>
//   perfbench selftest
//   perfbench serve --parent <pid>      (started by `run`, not by hand)
//
// `run` starts the served stack in its own process, preloads the
// population and registers the subscriptions over the wire (set-up), runs
// the workload for --seconds, sweeps every user with a final locate, and
// checks every answer against the benchmark's own model.  Its last line of
// output is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics (from the traced replay) with --trace 1.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/worker_pool.h"
#include "mobility/query_engine.h"
#include "net/codec.h"
#include "model.h"
#include "plan.h"
#include "replay.h"
#include "server_proc.h"
#include "wire.h"

namespace pb {
int selftest_main(const std::string& exe);
}

namespace {

using namespace pb;
namespace net = geogrid::net;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else throw CheckFailure("unknown argument " + k);
  }
  PB_REQUIRE(a.seconds > 0.0, "--seconds must be positive");
  workload_spec(a.workload);  // throws on an unknown name
  return a;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  PB_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Host-wide (steal, total) jiffies from /proc/stat.  On a shared VM the
/// steal share of a run explains most of its run-to-run drift.
std::pair<double, double> host_steal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double gen_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

struct Outcome {
  std::map<std::string, std::pair<double, const char*>> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Throughput is counted in slices of this many seconds.
constexpr double kSlice = 0.5;
/// Host steal is sampled this often (seconds) during the timed phase.
constexpr double kStealEvery = 0.05;
/// Subscription rate is counted over runs of this many acks.
constexpr std::size_t kSubChunk = 100;

/// 64-bit fingerprint of a byte string.
std::uint64_t hash_bytes(const std::string& s) {
  Hasher h;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h.add(w);
  }
  std::uint64_t tail = s.size();
  for (; i < s.size(); ++i) {
    tail = (tail << 8) | static_cast<unsigned char>(s[i]);
  }
  h.add(tail);
  return h.h;
}

/// The model.  During a phase the wire hands it every reply, and it keeps
/// only what the checks need: one token per reply (the ack's region, a
/// fingerprint of the locate answer or of the result payload, the
/// subscription id), the send and arrival times of open-loop requests, the
/// report history of the users whose Notifies are checked, and the timed
/// phase's latencies.  After the phase, verify() rebuilds the phase's
/// request stream from its feeds and checks each reply against it: last
/// writer wins by seq per user, ack regions from the region scan, query
/// results against the exhaustive answers.  The timed region thus carries
/// no model work.
struct Checker {
  const Plan& plan;
  const RegionTable& regions;
  std::vector<std::uint64_t> seq;     ///< by user: latest applied
  std::vector<Point> pos;
  std::vector<std::uint8_t> keep;     ///< by user: record report history
  /// By pool index: the fingerprint of the exhaustive answer, and for the
  /// range probe that of the answer the boundary fault gives.
  std::vector<std::uint64_t> pool_want;
  std::uint64_t probe_fault_want = 0;

  struct Hist {
    std::uint32_t user;
    std::uint64_t seq;
    Point pos;
    double sent, due, done;
  };
  std::vector<Hist> hist;  ///< applied reports of kept users, in ack order

  std::uint64_t updates = 0, stale = 0, replies = 0, subscribed = 0;
  std::uint64_t failed = 0;  ///< probes that met the boundary fault
  bool sweep = false;

  // What a phase keeps of its replies, by connection.
  struct ConnLog {
    std::vector<std::uint64_t> token;
    std::vector<double> sent, done;  ///< open-loop feeds only
  };
  std::vector<ConnLog> logs;
  std::unordered_map<std::uint64_t, std::string> payloads;  ///< by fingerprint

  // Timed-phase measurements.
  bool timed = false;
  double t0 = 0.0;
  std::vector<float> lat[4];  ///< us: update, locate, range, kNN
  std::vector<std::uint16_t> lat_slice[4];  ///< slice of each completion
  /// (time, host steal jiffies), sampled every kStealEvery seconds.
  std::vector<std::pair<double, double>> steal_samples;
  /// By slice: the host stole no more CPU in it than in the median slice.
  /// End-to-end figures come from these slices only.
  std::vector<std::uint8_t> calm;
  std::uint64_t reply_frames = 0, reply_bytes = 0, range_replies = 0,
                range_records = 0, update_frames = 0, update_bytes = 0;
  bool trace = false;
  std::vector<ClientSpan> spans;  ///< traced runs: the first 200k requests
  /// Completions per kSlice-second slice of the timed phase (updates,
  /// queries) and the last completion in each; throughput is the median
  /// slice rate.
  struct Slice {
    std::uint32_t count = 0;
    double last = 0.0;
  };
  std::vector<Slice> upd_slices, ans_slices;
  std::vector<double> sub_done;  ///< arrival of each subscribe ack

  // Notifies can name any mover when area subscriptions exist, only the
  // tracked users when every subscription is a friend one.
  Checker(const Plan& p, const RegionTable& r)
      : plan(p), regions(r), seq(p.users + 1, 0), pos(p.users + 1) {
    keep = plan.spec.friend_share < 1.0 ? plan.is_mover : plan.tracked;
  }

  /// Open-loop requests count from their due time, so a stall also delays
  /// the requests behind it; closed-loop ones from their send time.
  double start(const OpRec& op, bool open_loop) const {
    return open_loop ? t0 + op.due : op.sent;
  }

  void begin_phase(std::size_t conns) {
    logs.assign(conns, {});
    payloads.clear();
  }

  /// In the wire loop: keep the reply's token and timing.
  void on_reply(std::size_t conn, const OpRec& op, bool open_loop,
                double done, const net::Message& m, std::size_t frame_bytes) {
    if (timed && trace && spans.size() < 200'000) {
      spans.push_back({op.kind, static_cast<std::uint32_t>(conn), op.sent, done});
    }
    if (timed) sample_steal(done);
    ConnLog& log = logs[conn];
    if (open_loop) {
      log.sent.push_back(op.sent);
      log.done.push_back(done);
    }
    switch (op.kind) {
      case OpKind::kUpdate:
        log.token.push_back(std::get<net::LocationUpdateAck>(m).region.value);
        if (!op.probe && !op.stale && op.seq > 1 && keep[op.user]) {
          hist.push_back({op.user, op.seq, op.pos, op.sent,
                          start(op, open_loop), done});
        }
        if (timed) {
          lat[0].push_back(static_cast<float>((done - start(op, open_loop)) * 1e6));
          lat_slice[0].push_back(slice_of(done));
          slice(upd_slices, done);
          ++update_frames;
          update_bytes += op.len;
        }
        return;
      case OpKind::kLocate: {
        const auto& rep = std::get<net::LocateReply>(m);
        log.token.push_back(hash_locate(LocateAnswer{
            rep.found, rep.user.value, rep.seq, rep.location, rep.region.value}));
        break;
      }
      case OpKind::kRange:
      case OpKind::kNearest: {
        const std::string& payload = std::get<net::QueryResult>(m).payload;
        const std::uint64_t h = hash_bytes(payload);
        log.token.push_back(h);
        if (payloads.find(h) == payloads.end()) payloads.emplace(h, payload);
        break;
      }
      case OpKind::kSubscribe:
        log.token.push_back(std::get<net::SubscribeAck>(m).sub_id);
        sub_done.push_back(done);
        return;
    }
    if (timed) {
      lat[static_cast<int>(op.kind)].push_back(
          static_cast<float>((done - start(op, open_loop)) * 1e6));
      lat_slice[static_cast<int>(op.kind)].push_back(slice_of(done));
      slice(ans_slices, done);
      ++reply_frames;
      reply_bytes += frame_bytes;
    }
  }

  std::uint16_t slice_of(double t) const {
    const double i = std::floor((t - t0) / kSlice);
    return static_cast<std::uint16_t>(std::clamp(i, 0.0, 65535.0));
  }

  void sample_steal(double now) {
    if (steal_samples.empty() || now - steal_samples.back().first >= kStealEvery) {
      steal_samples.emplace_back(now, host_steal().first);
    }
  }

  /// Host steal at time t, interpolated between samples.
  double steal_at(double t) const {
    auto it = std::lower_bound(
        steal_samples.begin(), steal_samples.end(), t,
        [](const std::pair<double, double>& s, double v) { return s.first < v; });
    if (it == steal_samples.begin()) return it->second;
    if (it == steal_samples.end()) return steal_samples.back().second;
    const auto& [t1, s1] = *it;
    const auto& [ta, sa] = *(it - 1);
    return sa + (s1 - sa) * (t - ta) / (t1 - ta);
  }

  /// Marks the slices in which the host stole no more CPU than in the
  /// median slice.  On a shared VM, steal comes in bursts of a second or
  /// two and slows every layer at once; figures taken over the calmer
  /// slices measure the program, not its neighbours.  With no steal every
  /// slice counts.
  void mark_calm(std::size_t slices) {
    std::vector<double> steal(slices);
    for (std::size_t i = 0; i < slices; ++i) {
      steal[i] = steal_at(t0 + (i + 1) * kSlice) - steal_at(t0 + i * kSlice);
    }
    const double limit = median(steal);
    calm.assign(slices, 0);
    for (std::size_t i = 0; i < slices; ++i) calm[i] = steal[i] <= limit;
  }

  bool in_calm(std::size_t i) const { return i < calm.size() && calm[i]; }

  /// Latency samples of kind k that completed in a calm slice.
  std::vector<float> calm_lat(int k) const {
    std::vector<float> v;
    for (std::size_t j = 0; j < lat[k].size(); ++j) {
      if (in_calm(lat_slice[k][j])) v.push_back(lat[k][j]);
    }
    return v;
  }

  void slice(std::vector<Slice>& slices, double done) const {
    const auto i = static_cast<std::size_t>((done - t0) / kSlice);
    if (i >= slices.size()) return;
    ++slices[i].count;
    slices[i].last = std::max(slices[i].last, done);
  }

  /// Median completions per second over the timed phase's whole calm
  /// slices; a slice runs from the previous slice's last completion to its
  /// own.
  double median_rate(const std::vector<Slice>& slices) const {
    std::vector<double> r;
    double from = t0;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const Slice& sl = slices[i];
      if (sl.count == 0) continue;
      if (in_calm(i)) r.push_back(sl.count / (sl.last - from));
      from = sl.last;
    }
    PB_REQUIRE(!r.empty(), "run too short for a throughput slice");
    return median(std::move(r));
  }

  /// After the phase: rebuilds each connection's requests from `feeds`
  /// (fresh copies of the phase's feeds) and checks every reply.
  void verify(const std::vector<std::unique_ptr<Feed>>& feeds, bool in_timed) {
    std::vector<std::byte> scratch;
    std::deque<OpRec> ops;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      const ConnLog& log = logs[c];
      if (log.token.empty()) continue;
      PB_REQUIRE(c < feeds.size() && feeds[c] != nullptr,
                 "replies on an idle connection");
      Feed& feed = *feeds[c];
      const bool open_loop = !feed.closed_loop();
      ops.clear();
      if (open_loop) {
        // Open-loop schedules are small: rebuild them whole, so that an
        // ack can be matched against later reports already sent.
        while (ops.size() < log.token.size()) {
          scratch.clear();
          PB_REQUIRE(feed.fill(kRound, scratch, ops) > 0,
                     "feed ran short of the replies");
        }
        std::unordered_map<std::uint32_t, double> sent_of_report;
        for (std::size_t i = 0; i < log.token.size(); ++i) {
          if (ops[i].report != kNoReport) sent_of_report[ops[i].report] = log.sent[i];
        }
        for (std::size_t i = 0; i < log.token.size(); ++i) {
          check(ops[i], log.token[i], log.done[i], &sent_of_report, in_timed);
        }
        continue;
      }
      std::size_t i = 0;
      while (i < log.token.size()) {
        scratch.clear();
        ops.clear();
        PB_REQUIRE(feed.fill(kRound, scratch, ops) > 0,
                   "feed ran short of the replies");
        for (std::size_t k = 0; k < ops.size() && i < log.token.size(); ++k, ++i) {
          check(ops[k], log.token[i], 0.0, nullptr, in_timed);
        }
      }
    }
    logs.clear();
    payloads.clear();
  }

  /// One reply's token against the request it answered.
  void check(const OpRec& op, std::uint64_t token, double done,
             const std::unordered_map<std::uint32_t, double>* sent_of_report,
             bool in_timed) {
    switch (op.kind) {
      case OpKind::kUpdate:
        check_ack(op, static_cast<std::uint32_t>(token), done, sent_of_report);
        return;
      case OpKind::kLocate:
        if (sweep) {
          const std::uint32_t u = op.arg;
          const LocateAnswer want{true, u, seq[u], pos[u],
                                  regions.region_at_bucketed(pos[u])};
          PB_REQUIRE(token == hash_locate(want),
                     "final locate of user " + std::to_string(u) +
                         " differs from the model");
        } else {
          PB_REQUIRE(token == pool_want[op.arg],
                     "locate reply to pool query " + std::to_string(op.arg) +
                         " differs from the model");
        }
        break;
      case OpKind::kRange:
      case OpKind::kNearest: {
        const Result& r = result(op, token);
        if (r.fault) ++failed;
        if (in_timed && op.kind == OpKind::kRange) {
          ++range_replies;
          range_records += r.records;
        }
        break;
      }
      case OpKind::kSubscribe:
        PB_REQUIRE(token == plan.subs[op.arg].id,
                   "subscribe ack for the wrong subscription");
        ++subscribed;
        return;
    }
    ++replies;
  }

  /// A query result payload checked against the exhaustive answer, once
  /// per (pool query, payload).
  struct Result {
    bool fault = false;  ///< the range probe's boundary-fault answer
    std::size_t records = 0;
  };
  std::unordered_map<std::uint64_t, Result> results_;

  const Result& result(const OpRec& op, std::uint64_t token) {
    const std::uint64_t key = token ^ (std::uint64_t{op.arg} * 0x9E3779B97F4A7C15ULL);
    if (auto it = results_.find(key); it != results_.end()) return it->second;
    auto p = payloads.find(token);
    PB_REQUIRE(p != payloads.end(), "query result payload not kept");
    net::Reader rd(reinterpret_cast<const std::byte*>(p->second.data()),
                   p->second.size());
    const geogrid::mobility::QueryResult qr =
        geogrid::mobility::QueryResult::decode(rd);
    PB_REQUIRE(rd.done(), "trailing bytes in a query result");
    std::vector<RecordKey> got;
    got.reserve(qr.records.size());
    for (const auto& rec : qr.records) {
      PB_REQUIRE(rec.timestamp == 0.0, "wire record carries a timestamp");
      got.push_back({rec.user.value, rec.seq, rec.position});
    }
    const std::uint64_t h = hash_records(got);
    Result r;
    r.records = got.size();
    if (h != pool_want[op.arg]) {
      PB_REQUIRE(op.probe && h == probe_fault_want,
                 "reply to pool query " + std::to_string(op.arg) +
                     " differs from the model's exhaustive answer");
      r.fault = true;
    }
    return results_.emplace(key, r).first->second;
  }

  void check_ack(const OpRec& op, std::uint32_t got, double done,
                 const std::unordered_map<std::uint32_t, double>* sent_of_report) {
    ++updates;
    const std::uint32_t u = op.user;
    if (op.probe) {
      if (got == regions.region_at(op.expect_pos)) return;
      PB_REQUIRE(op.pos == plan.probe.to && got == plan.probe.from_region,
                 "probe ack for user " + std::to_string(u) + " names region " +
                     std::to_string(got));
      ++failed;
      return;
    }
    // The ack names the region holding the user right after the flush.
    // Closed-loop ingest spaces a user's requests half a round apart, so
    // that is `expect_pos`; an open-loop schedule may have sent a later
    // report of the user before this ack came back, so those count too.
    bool ok = ack_region_matches(regions, {&op.expect_pos, 1}, got);
    if (!ok && op.report != kNoReport && sent_of_report != nullptr) {
      std::vector<Point> later;
      for (std::uint32_t k = plan.user_offsets[u]; k < plan.user_offsets[u + 1];
           ++k) {
        const std::uint32_t r = plan.user_reports[k];
        const auto it = sent_of_report->find(r);
        if (plan.reports[r].seq > op.seq && it != sent_of_report->end() &&
            it->second <= done) {
          later.push_back(plan.reports[r].pos);
        }
      }
      ok = ack_region_matches(regions, later, got);
    }
    PB_REQUIRE(ok,
            "ack for user " + std::to_string(u) + " seq " +
                std::to_string(op.seq) + " names region " +
                std::to_string(got) + ", which does not cover the user at " +
                fixed6(op.expect_pos.x) + "," + fixed6(op.expect_pos.y) +
                (op.stale ? " (stale retransmission)" : "") + "; the scan says " +
                std::to_string(regions.region_at(op.expect_pos)));
    if (op.stale) {
      PB_REQUIRE(op.seq < seq[u], "a retransmission was not stale");
      ++stale;
      return;
    }
    PB_REQUIRE(op.seq > seq[u], "a fresh report was not newer than the model");
    seq[u] = op.seq;
    pos[u] = op.pos;
  }
};

Outcome run(const Args& args, double t_start) {
  ServerProcess server(self_exe());
  const ServerHello hello = server.read_hello();
  const RegionTable regions(hello.regions);
  Plan plan = make_plan(args.workload, args.seed, args.seconds, regions);
  Checker check(plan, regions);
  check.trace = args.trace;

  // Every pool query's exhaustive answer over the static population.
  std::vector<RecordKey> statics;
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    if (!plan.is_mover[u]) statics.push_back({u, 1, plan.reports[u - 1].pos});
  }
  StaticIndex index;
  index.build(statics);
  check.pool_want.assign(plan.pool.size(), 0);
  {
    geogrid::common::WorkerPool workers(
        std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency())));
    const std::size_t tasks = workers.task_count();
    workers.run([&](std::size_t task) {
      for (std::size_t i = task; i < plan.pool.size(); i += tasks) {
        const PoolQuery& q = plan.pool[i];
        if (q.kind == OpKind::kLocate) {
          const Point p = plan.reports[q.user - 1].pos;
          check.pool_want[i] = hash_locate(
              LocateAnswer{true, q.user, 1, p, regions.region_at(p)});
        } else if (q.kind == OpKind::kRange) {
          check.pool_want[i] = hash_records(index.range(q.rect));
        } else {
          check.pool_want[i] = hash_records(index.nearest(q.center, q.k));
        }
      }
    });
  }
  {
    // The range probe under the boundary fault: its west-edge user too.
    const Rect& r = plan.pool[plan.probe.range_pool].rect;
    std::vector<RecordKey> fault = index.range(r);
    const std::uint32_t u = plan.probe.range_user;
    fault.insert(fault.begin(), RecordKey{u, 1, plan.reports[u - 1].pos});
    check.probe_fault_want = hash_records(fault);
  }

  Wire wire(hello.port, plan.conns);
  auto static_feeds = [&](const std::vector<Stream>& streams) {
    return [&plan, &streams] {
      std::vector<std::unique_ptr<Feed>> f(plan.conns);
      for (std::size_t c = 0; c < streams.size(); ++c) {
        if (!streams[c].ops.empty()) f[c] = static_feed(plan, streams[c]);
      }
      return f;
    };
  };
  std::vector<Feed*> active;
  auto on_reply = [&](std::size_t c, const OpRec& op, double done,
                      const net::Message& m, std::size_t bytes) {
    check.on_reply(c, op, !active[c]->closed_loop(), done, m, bytes);
  };
  // Runs an untimed, closed-loop phase over fresh feeds, then checks it
  // over another fresh set.
  auto phase = [&](const std::function<std::vector<std::unique_ptr<Feed>>()>&
                       make_feeds) {
    const std::vector<std::unique_ptr<Feed>> feeds = make_feeds();
    active.assign(plan.conns, nullptr);
    for (std::size_t c = 0; c < feeds.size(); ++c) active[c] = feeds[c].get();
    check.begin_phase(plan.conns);
    wire.run(active, 0.0, on_reply);
    check.verify(make_feeds(), false);
  };

  // ---- set-up: preload, subscriptions ------------------------------------
  phase(static_feeds(plan.preload));
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    PB_REQUIRE(check.seq[u] == 1, "preload of user " + std::to_string(u) + " lost");
  }
  std::vector<Stream> sub_streams(plan.conns);
  sub_streams[plan.sub_conn] = plan.subscribe;
  phase(static_feeds(sub_streams));
  PB_REQUIRE(check.failed == 0, "a probe failed during set-up");
  const Stats s0 = server.command("stats");
  const double cpu0 = proc_cpu_s(hello.pid);
  const double loop0 = proc_cpu_s(hello.pid, hello.loop_tid);
  const double gen0 = gen_cpu_s();
  const std::pair<double, double> steal0 = host_steal();
  const double setup_s = now_s() - t_start;

  // ---- the measured run --------------------------------------------------
  // The generator's CPU time and the server's counters are read before the
  // replies are checked, so that they cover the timed phase alone.
  const std::size_t slices =
      static_cast<std::size_t>(std::floor(args.seconds / kSlice));
  check.upd_slices.assign(slices, {});
  check.ans_slices.assign(slices, {});
  const std::vector<std::unique_ptr<Feed>> timed_owned = timed_feeds(plan);
  active.assign(plan.conns, nullptr);
  for (std::size_t c = 0; c < timed_owned.size(); ++c) active[c] = timed_owned[c].get();
  check.begin_phase(plan.conns);
  check.timed = true;
  check.sample_steal(now_s());
  const PhaseResult timed = wire.run(active, args.seconds, on_reply, &check.t0);
  check.timed = false;
  check.steal_samples.emplace_back(now_s(), host_steal().first);
  check.mark_calm(slices);
  const double gen_cpu = gen_cpu_s() - gen0;
  const std::pair<double, double> steal1 = host_steal();
  const double steal_share =
      steal1.second > steal0.second
          ? (steal1.first - steal0.first) / (steal1.second - steal0.second)
          : 0.0;
  const double server_cpu = proc_cpu_s(hello.pid) - cpu0;
  const double loop_cpu = proc_cpu_s(hello.pid, hello.loop_tid) - loop0;
  const Stats s1 = server.command("stats");
  const double peak_rss = proc_peak_rss_mb(hello.pid);
  check.verify(timed_feeds(plan), true);
  const std::uint64_t failed = check.failed;
  const double wall = timed.t_last - timed.t0;
  const std::uint64_t attempted = timed.sent;

  // ---- quiescent end: sweep every user, then stop the server -------------
  const std::vector<Stream> sweep_streams = make_sweep(plan);
  check.sweep = true;
  phase(static_feeds(sweep_streams));
  PB_REQUIRE(check.failed == failed, "a probe failed outside the timed phase");
  const Stats fin = server.command("quit");
  PB_REQUIRE(server.wait_exit(), "server process did not exit cleanly");

  // ---- notifications -----------------------------------------------------
  // Reports the checker may see announced: every user's preload, then the
  // applied reports of the users whose history was kept.
  std::vector<Report> reports(plan.reports.begin(),
                              plan.reports.begin() +
                                  static_cast<std::ptrdiff_t>(plan.users));
  std::vector<double> sent(plan.users, 0.0), due(plan.users, 0.0),
      done(plan.users, 0.0);
  std::vector<std::vector<std::uint32_t>> by_user(plan.users + 1);
  for (std::uint32_t u = 1; u <= plan.users; ++u) by_user[u].push_back(u - 1);
  for (const Checker::Hist& h : check.hist) {
    by_user[h.user].push_back(static_cast<std::uint32_t>(reports.size()));
    reports.push_back({h.user, h.seq, h.pos});
    sent.push_back(h.sent);
    due.push_back(h.due);
    done.push_back(h.done);
  }
  std::vector<std::uint32_t> offsets(plan.users + 2, 0), order;
  std::vector<std::uint8_t> isolated(reports.size(), 0);
  std::vector<std::uint32_t> moved;
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    offsets[u] = static_cast<std::uint32_t>(order.size());
    const std::vector<std::uint32_t>& rs = by_user[u];
    for (std::size_t k = 0; k < rs.size(); ++k) {
      order.push_back(rs[k]);
      // Applied in a flush of its own: sent after its predecessor's ack
      // arrived, acked before its successor was sent.
      if (k > 0) {
        isolated[rs[k]] = done[rs[k - 1]] <= sent[rs[k]] &&
                          (k + 1 == rs.size() || sent[rs[k + 1]] >= done[rs[k]]);
      }
    }
    if (rs.size() > 1 && check.pos[u] != reports[u - 1].pos) moved.push_back(u);
  }
  offsets[plan.users + 1] = static_cast<std::uint32_t>(order.size());
  std::vector<Point> initial_pos(plan.users + 1);
  for (std::uint32_t u = 1; u <= plan.users; ++u) initial_pos[u] = reports[u - 1].pos;
  NotifyChecker checker(plan.subs, reports, offsets, order, initial_pos);
  std::vector<double> notify_lat;
  std::vector<float> notify_calm;
  for (const NotifyGot& n : wire.notifies()) {
    const std::uint32_t r = checker.feed(n);
    PB_REQUIRE(sent[r] <= n.recv_s, "notify arrived before its update was sent");
    notify_lat.push_back((n.recv_s - due[r]) * 1e6);
    if (n.recv_s >= check.t0 && check.in_calm(check.slice_of(n.recv_s))) {
      notify_calm.push_back(static_cast<float>(notify_lat.back()));
    }
  }
  checker.finish(check.pos, moved, isolated);

  // ---- totals reached by independent paths -------------------------------
  auto stat = [](const Stats& s, const char* k) {
    auto it = s.find(k);
    PB_REQUIRE(it != s.end(), std::string("server did not report ") + k);
    return static_cast<std::uint64_t>(it->second);
  };
  PB_REQUIRE(stat(fin, "updates_in") == check.updates,
          "updates sent (" + std::to_string(check.updates) +
              ") != server updates_in (" +
              std::to_string(stat(fin, "updates_in")) + ")");
  PB_REQUIRE(stat(fin, "dir_applied") + stat(fin, "dir_stale") == check.updates,
          "applied + stale updates != updates sent");
  PB_REQUIRE(stat(fin, "dir_stale") == check.stale,
          "model stale count (" + std::to_string(check.stale) +
              ") != directory updates_stale (" +
              std::to_string(stat(fin, "dir_stale")) + ")");
  PB_REQUIRE(stat(fin, "acks_out") == check.updates, "acks out != updates sent");
  PB_REQUIRE(stat(fin, "replies_out") == check.replies,
          "replies received != server replies_out");
  PB_REQUIRE(stat(fin, "notifies_out") == wire.notifies().size(),
          "notifies received (" + std::to_string(wire.notifies().size()) +
              ") != server notifies_out (" +
              std::to_string(stat(fin, "notifies_out")) + ")");
  PB_REQUIRE(stat(fin, "subscribes_in") == check.subscribed, "subscribes lost");
  PB_REQUIRE(stat(fin, "malformed_frames") == 0 &&
              stat(fin, "unexpected_messages") == 0 &&
              stat(fin, "slow_consumer_closes") == 0,
          "server cut a connection or rejected a frame");

  // ---- end-to-end metrics --------------------------------------------------
  auto p = [](const std::vector<float>& v, double q) {
    PB_REQUIRE(!v.empty(), "a latency metric has no samples");
    return percentile(std::vector<double>(v.begin(), v.end()), q);
  };
  const std::vector<float> ntf(notify_lat.begin(), notify_lat.end());
  Outcome out;
  auto put = [&](const char* k, double v, const char* unit) { out.e2e[k] = {v, unit}; };
  put("setup_s", setup_s, "s");
  put("peak_rss_mb", peak_rss, "MiB");
  put("ingest_upd_per_s", check.median_rate(check.upd_slices), "1/s");
  put("update_ack_p50_us", p(check.calm_lat(0), 50), "us");
  put("query_per_s", check.median_rate(check.ans_slices), "1/s");
  put("locate_p50_us", p(check.calm_lat(1), 50), "us");
  put("range_p50_us", p(check.calm_lat(2), 50), "us");
  put("knn_p50_us", p(check.calm_lat(3), 50), "us");
  put("notify_p50_us", p(notify_calm, 50), "us");
  // Median rate over runs of kSubChunk consecutive acks, so that one
  // preemption during the few milliseconds of registration moves one
  // chunk, not the figure.
  std::vector<double> sub_rates;
  for (std::size_t i = kSubChunk; i < check.sub_done.size(); i += kSubChunk) {
    sub_rates.push_back(static_cast<double>(kSubChunk) /
                        (check.sub_done[i] - check.sub_done[i - kSubChunk]));
  }
  PB_REQUIRE(!sub_rates.empty(), "too few subscriptions for a rate");
  // Reference figures, too unsteady between runs on a shared 4-core host
  // to gate on: the tails, and the subscription rate, whose registration
  // lasts only a few milliseconds.
  std::fprintf(stderr,
               "reference: p99 (us) update_ack %.1f locate %.1f range %.1f "
               "knn %.1f notify %.1f; subscribe_per_s %.0f\n",
               p(check.lat[0], 99), p(check.lat[1], 99), p(check.lat[2], 99),
               p(check.lat[3], 99), p(ntf, 99), median(std::move(sub_rates)));
  std::fprintf(stderr,
               "perfbench %s seed %llu: %.3f s timed; samples "
               "update/locate/range/knn/notify = %zu/%zu/%zu/%zu/%zu; "
               "generator peak RSS %.1f MiB, server %.1f MiB; CPU s in the "
               "timed phase: generator %.2f, server %.2f; host CPU steal "
               "%.1f%%, calm slices %zu of %zu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), wall,
               check.lat[0].size(), check.lat[1].size(), check.lat[2].size(),
               check.lat[3].size(), ntf.size(), proc_peak_rss_mb(::getpid()),
               peak_rss, gen_cpu, server_cpu, 100.0 * steal_share,
               static_cast<std::size_t>(
                   std::count(check.calm.begin(), check.calm.end(), 1)),
               check.calm.size());
  out.attempted = attempted;
  out.failed = failed;

  // ---- per-layer metrics ---------------------------------------------------
  if (args.trace) {
    auto d = [&](const char* k) {
      return static_cast<double>(stat(s1, k)) - static_cast<double>(stat(s0, k));
    };
    const double queries_in = d("locates_in") + d("ranges_in") + d("nearests_in");
    ReplayInput in;
    in.plan = &plan;
    in.timed = &timed;
    in.mean_ingest_batch = d("ingest_flushes") > 0 ? d("updates_in") / d("ingest_flushes") : 1.0;
    in.mean_query_batch = d("query_flushes") > 0 ? queries_in / d("query_flushes") : 1.0;
    // One file per workload, overwritten by the next traced run, so that
    // repeated runs do not pile up spans on disk.
    in.trace_path = ".bench_trace/" + args.workload + ".tsv";
    in.client_spans = &check.spans;
    std::map<std::string, double> m = replay(in);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["net.update_frame_bytes"] = ratio(static_cast<double>(check.update_bytes),
                                        static_cast<double>(check.update_frames));
    m["net.reply_bytes_per_query"] = ratio(static_cast<double>(check.reply_bytes),
                                           static_cast<double>(check.reply_frames));
    m["query.records_per_range"] = ratio(static_cast<double>(check.range_records),
                                         static_cast<double>(check.range_replies));
    m["serve.size_flushes"] = d("size_flushes");
    m["serve.deadline_flushes"] = d("deadline_flushes");
    m["serve.forced_flushes"] = d("forced_flushes");
    m["serve.mean_ingest_batch"] = in.mean_ingest_batch;
    m["serve.mean_query_batch"] = in.mean_query_batch;
    m["serve.backpressure_gates"] = d("backpressure_gates");
    m["serve.outbuf_gates"] = d("outbuf_gates");
    m["serve.update_residence_p50_us"] = s1.at("res_update_p50_us");
    m["serve.locate_residence_p50_us"] = s1.at("res_locate_p50_us");
    m["serve.range_residence_p50_us"] = s1.at("res_range_p50_us");
    m["serve.knn_residence_p50_us"] = s1.at("res_knn_p50_us");
    m["serve.cpu_s"] = server_cpu;
    m["serve.loop_busy"] = loop_cpu / wall;
    m["serve.unattributed_s"] = wall - m["replay_layer_s"];
    m.erase("replay_layer_s");
    m["directory.stale"] = static_cast<double>(stat(fin, "dir_stale"));
    m["directory.handoffs"] = static_cast<double>(stat(fin, "dir_handoffs"));
    m["directory.snapshots_published"] =
        static_cast<double>(stat(fin, "dir_snapshots_published"));
    m["directory.slices_copied"] =
        static_cast<double>(stat(fin, "dir_slices_copied"));
    m["directory.applied_ratio"] =
        ratio(static_cast<double>(stat(fin, "dir_applied")),
              static_cast<double>(check.updates));
    m["gen.lag_p99_us"] = timed.lag_s.empty() ? 0.0 : percentile(timed.lag_s, 99) * 1e6;
    m["gen.cpu_s"] = gen_cpu;
    out.layer = std::move(m);
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, std::pair<double, const char*>>& metrics) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    os << (first ? "" : ", ") << '"' << k << "\": {\"value\": " << v.first
       << ", \"unit\": \"" << v.second << "\"}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

const char* layer_unit(const std::string& k) {
  auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return k.size() >= n && k.compare(k.size() - n, n, s) == 0;
  };
  if (ends("_ns") || ends("_ns_per_frame") || ends("_ns_per_update") ||
      ends("_ns_per_update_1shard") || ends("_ns_per_candidate")) return "ns";
  if (ends("_us") || ends("_us_per_epoch")) return "us";
  if (ends("_s")) return "s";
  if (ends("_bytes") || ends("bytes_per_query")) return "bytes";
  if (ends("ratio") || ends("busy")) return "fraction";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "serve") return serve_main(argc, argv);
    if (mode == "selftest") return selftest_main(self_exe());
    if (mode != "run") {
      std::fprintf(stderr,
                   "usage: perfbench run --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> | selftest\n");
      return 2;
    }
    const Args args = parse(argc, argv);
    const Outcome out = run(args, t_start);
    if (!args.trace) {
      print_result(true, out.attempted, out.failed, out.e2e);
    } else {
      for (const auto& [k, v] : out.e2e) {
        std::fprintf(stderr, "traced %s = %.6g\n", k.c_str(), v.first);
      }
      std::map<std::string, std::pair<double, const char*>> layer;
      for (const auto& [k, v] : out.layer) layer[k] = {v, layer_unit(k)};
      print_result(true, out.attempted, out.failed, layer);
    }
    return 0;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
