#include "plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "net/framing.h"
#include "net/messages.h"
#include "workload/hotspot.h"

namespace pb {

namespace net = geogrid::net;

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  s.users = 100'000;
  if (name == "ingest") {
    s.x_split = 56.0;
    s.step = 0.05;
    s.update_conns = 3;
    s.update_window = 2048;
    s.stale_fraction = 0.01;
    s.query_rate = 1000.0;
    s.pool_size = 4096;
    s.subs = 1000;
    s.friend_share = 1.0;
  } else if (name == "query") {
    s.x_split = 4.0;
    s.mover_cap = 200;
    s.step = 0.05;
    s.update_rate = 100.0;
    s.query_conns = 3;
    s.query_window = 64;
    s.pool_size = 16'384;
    s.subs = 1000;
    s.friend_share = 1.0;
  } else if (name == "live") {
    s.x_split = 32.0;
    s.step = 0.2;
    s.update_rate = 10'000.0;
    s.burst_period = 0.1;
    s.query_rate = 5000.0;
    s.pool_size = 16'384;
    s.subs = 5000;
    s.friend_share = 0.10;
    s.range_sub_share = 0.45;
  } else {
    throw CheckFailure("unknown workload '" + name + "'");
  }
  return s;
}

namespace {

constexpr double kEdge = 1e-6;     ///< keeps points off the plane border
constexpr double kMargin = 0.01;   ///< gap between the mover strip and queries
constexpr std::size_t kHotspots = 8;
constexpr std::uint64_t kFieldSeed = 2007;
/// The probes' fixed places (see Probes): the update probe crosses the
/// west edge of the lowest-id region whose west edge lies in [1, 3], in
/// every workload's mover strip; static user 1 stands at kRangeProbeAt, in
/// every workload's query area.
constexpr double kUpdateProbeWest[2] = {1.0, 3.0};
constexpr Point kRangeProbeAt{60.3, 20.3};

/// Requests in whole rounds: at least `rate * seconds`, and at least one.
std::size_t whole_rounds(double rate, double seconds) {
  const auto n = static_cast<std::size_t>(std::floor(rate * seconds));
  return std::max<std::size_t>(1, (n + kRound - 1) / kRound) * kRound;
}

/// True when the closed rects overlap or touch.
bool touches(const Rect& a, const Rect& b) {
  return a.x <= b.x + b.width && b.x <= a.x + a.width &&
         a.y <= b.y + b.height && b.y <= a.y + a.height;
}

/// The benchmark's own hot-spot field: a few discs that attract users and
/// query centres, drawn from kFieldSeed.
struct Field {
  Rect plane;
  std::vector<Point> centers;
  std::vector<double> radii;

  Field(const Rect& p, Rng& rng) : plane(p) {
    for (std::size_t i = 0; i < kHotspots; ++i) {
      centers.push_back({rng.uniform(p.x, p.x + p.width),
                         rng.uniform(p.y, p.y + p.height)});
      radii.push_back(rng.uniform(2.0, 8.0));
    }
  }

  /// A point with x in [x_lo, x_hi], hot-spot weighted (70%) or uniform.
  Point sample(Rng& rng, double x_lo, double x_hi) const {
    const double lo = std::max(x_lo, plane.x + kEdge);
    const double hi = std::min(x_hi, plane.x + plane.width - kEdge);
    for (int attempt = 0; attempt < 64; ++attempt) {
      Point p;
      if (rng.uniform() < 0.7) {
        const std::size_t h = rng.index(centers.size());
        const double r = radii[h] * std::sqrt(rng.uniform());
        const double a = rng.uniform(0.0, 6.283185307179586);
        p = {centers[h].x + r * std::cos(a), centers[h].y + r * std::sin(a)};
      } else {
        p = {rng.uniform(plane.x, plane.x + plane.width),
             rng.uniform(plane.y, plane.y + plane.height)};
      }
      if (p.x >= lo && p.x <= hi && p.y > plane.y + kEdge &&
          p.y < plane.y + plane.height - kEdge) {
        return p;
      }
    }
    return {rng.uniform(lo, hi),
            rng.uniform(plane.y + kEdge, plane.y + plane.height - kEdge)};
  }
};

double reflect(double v, double lo, double hi) {
  if (v < lo) v = lo + (lo - v);
  if (v > hi) v = hi - (v - hi);
  return std::clamp(v, lo, hi);
}

/// A mover's next position: a step of at most `spec.step` per axis,
/// reflected into the mover strip, redrawn while it lands within
/// kEdgeMargin of a region edge.
Point step(const Point& from, Rng& rng, const WorkloadSpec& spec,
           const Rect& plane, const RegionTable& regions) {
  Point p;
  int attempt = 0;
  do {
    PB_REQUIRE(++attempt < 1000, "no step clears the region edges");
    p = {reflect(from.x + rng.uniform(-spec.step, spec.step), plane.x + kEdge,
                 spec.x_split - kEdge),
         reflect(from.y + rng.uniform(-spec.step, spec.step), plane.y + kEdge,
                 plane.y + plane.height - kEdge)};
  } while (regions.near_edge(p, kEdgeMargin));
  return p;
}

void append(Stream& s, const net::Message& m, std::uint32_t arg, OpKind kind,
            double due = 0.0, bool probe = false) {
  const std::vector<std::byte> frame = net::encode_frame(m);
  Op op;
  op.off = static_cast<std::uint32_t>(s.bytes.size());
  op.len = static_cast<std::uint32_t>(frame.size());
  op.arg = arg;
  op.kind = kind;
  op.probe = probe;
  op.due = due;
  s.bytes.insert(s.bytes.end(), frame.begin(), frame.end());
  s.ops.push_back(op);
}

net::Message update_msg(const Report& r) {
  net::LocationUpdate m;
  m.user = geogrid::UserId{r.user};
  m.location = r.pos;
  m.seq = r.seq;
  return m;
}

void append_query(Stream& s, const PoolQuery& q, std::uint32_t index,
                  double due = 0.0, bool probe = false) {
  switch (q.kind) {
    case OpKind::kLocate: {
      net::LocateRequest m;
      m.request_id = index + 1;
      m.user = geogrid::UserId{q.user};
      append(s, m, index, q.kind, due, probe);
      return;
    }
    case OpKind::kRange: {
      net::LocationQuery m;
      m.query_id = index + 1;
      m.area = q.rect;
      append(s, m, index, q.kind, due, probe);
      return;
    }
    case OpKind::kNearest: {
      net::NearestRequest m;
      m.query_id = index + 1;
      m.center = q.center;
      m.k = q.k;
      append(s, m, index, q.kind, due, probe);
      return;
    }
    default:
      throw CheckFailure("not a query kind");
  }
}

/// True when a point of the x-sorted list lies within kEdgeMargin of the
/// boundary of `r`.
bool edge_has_point(const std::vector<Point>& by_x, const Rect& r) {
  auto it = std::lower_bound(
      by_x.begin(), by_x.end(), r.x - kEdgeMargin,
      [](const Point& p, double x) { return p.x < x; });
  for (; it != by_x.end() && it->x <= r.x + r.width + kEdgeMargin; ++it) {
    if (near_boundary(r, *it, kEdgeMargin)) return true;
  }
  return false;
}

/// Static users within `radius` of `c`, counted from the x-sorted list.
std::size_t count_within(const std::vector<Point>& by_x, const Point& c,
                         double radius) {
  auto it = std::lower_bound(
      by_x.begin(), by_x.end(), c.x - radius,
      [](const Point& p, double x) { return p.x < x; });
  std::size_t n = 0;
  for (; it != by_x.end() && it->x <= c.x + radius; ++it) {
    if (geogrid::distance(*it, c) < radius) ++n;
  }
  return n;
}

}  // namespace


namespace {

/// Replays a pre-encoded stream.
class StaticFeed : public Feed {
 public:
  StaticFeed(const Plan& plan, const Stream& stream)
      : Feed(stream.closed_loop, stream.window), plan_(plan), stream_(stream) {}

  std::size_t fill(std::size_t max, std::vector<std::byte>& bytes,
                   std::deque<OpRec>& ops) override {
    std::size_t n = 0;
    for (; n < max && next_ < stream_.ops.size(); ++n, ++next_) {
      const Op& op = stream_.ops[next_];
      bytes.insert(bytes.end(), stream_.bytes.begin() + op.off,
                   stream_.bytes.begin() + op.off + op.len);
      OpRec r;
      r.kind = op.kind;
      r.probe = op.probe;
      r.len = op.len;
      r.arg = op.arg;
      r.due = op.due;
      if (op.kind == OpKind::kUpdate) {
        const Report& rep =
            op.probe ? plan_.probe.reports[op.arg] : plan_.reports[op.arg];
        if (!op.probe) r.report = op.arg;
        r.user = rep.user;
        r.seq = rep.seq;
        r.pos = r.expect_pos = rep.pos;
      }
      ops.push_back(r);
    }
    return n;
  }

 private:
  const Plan& plan_;
  const Stream& stream_;
  std::size_t next_ = 0;
};

/// Closed-loop queries cycling through the pre-encoded pool; the first
/// query of every round is the range probe.
class PoolFeed : public Feed {
 public:
  PoolFeed(const Plan& plan, std::size_t window, std::size_t start)
      : Feed(true, window),
        pool_(plan.pool_stream),
        probe_(plan.probe.range_pool),
        next_(start) {}

  std::size_t fill(std::size_t max, std::vector<std::byte>& bytes,
                   std::deque<OpRec>& ops) override {
    for (std::size_t n = 0; n < max; ++n, ++emitted_) {
      const bool probe = emitted_ % kRound == 0;
      const Op& op = pool_.ops[probe ? probe_ : next_];
      if (!probe) next_ = (next_ + 1) % probe_;
      bytes.insert(bytes.end(), pool_.bytes.begin() + op.off,
                   pool_.bytes.begin() + op.off + op.len);
      OpRec r;
      r.kind = op.kind;
      r.probe = probe;
      r.len = op.len;
      r.arg = op.arg;
      ops.push_back(r);
    }
    return max;
  }

 private:
  const Stream& pool_;
  std::size_t probe_;  ///< the probe's index; the regular pool precedes it
  std::size_t next_;
  std::size_t emitted_ = 0;
};

/// The closed-loop ingest stream of one connection: rounds over its
/// movers, each moving a little.  After a move, with probability
/// stale_fraction, the previous report of the user half a round away is
/// resent: that user's latest report is at least half a round old (so,
/// with the window below half a round, already acked) and its next one is
/// half a round ahead (not yet sent), so the retransmission is stale and
/// its ack names the region of the user's latest position.  The first
/// request of every round is the connection's update probe.
class IngestFeed : public Feed {
 public:
  IngestFeed(const Plan& plan, std::size_t conn)
      : Feed(true, plan.spec.update_window),
        spec_(plan.spec),
        plane_(plan.plane),
        regions_(*plan.regions),
        users_(plan.updater_users[conn]),
        probe_user_(plan.probe.first_user + static_cast<std::uint32_t>(conn)),
        probe_to_(plan.probe.to),
        rng_(plan.seed * 1000003 + conn + 17) {
    for (const std::uint32_t u : users_) {
      cur_.push_back(plan.reports[u - 1].pos);
      prev_.push_back(cur_.back());
      seq_.push_back(1);
    }
    PB_REQUIRE(users_.size() / 2 > spec_.update_window,
            "too few movers per connection for the ingest window");
  }

  std::size_t fill(std::size_t max, std::vector<std::byte>& bytes,
                   std::deque<OpRec>& ops) override {
    const std::size_t L = users_.size();
    for (std::size_t n = 0; n < max; ++n) {
      if (emitted_++ % kRound == 0) {
        emit_probe(bytes, ops);
        continue;
      }
      if (stale_pending_) {
        stale_pending_ = false;
        const std::size_t j = (k_ + L / 2) % L;
        emit(j, prev_[j], seq_[j] - 1, cur_[j], true, bytes, ops);
        advance();
        continue;
      }
      const Point p = step(cur_[k_], rng_, spec_, plane_, regions_);
      prev_[k_] = cur_[k_];
      cur_[k_] = p;
      ++seq_[k_];
      emit(k_, p, seq_[k_], p, false, bytes, ops);
      stale_pending_ = round_ >= 1 && rng_.uniform() < spec_.stale_fraction;
      if (!stale_pending_) advance();
    }
    return max;
  }

 private:
  void advance() {
    if (++k_ == users_.size()) {
      k_ = 0;
      ++round_;
    }
  }

  void emit(std::size_t j, const Point& pos, std::uint64_t seq,
            const Point& expect, bool stale, std::vector<std::byte>& bytes,
            std::deque<OpRec>& ops) {
    emit_record(users_[j], pos, seq, expect, stale, false, bytes, ops);
  }

  void emit_probe(std::vector<std::byte>& bytes, std::deque<OpRec>& ops) {
    emit_record(probe_user_, probe_to_, ++probe_seq_, probe_to_, false, true,
                bytes, ops);
  }

  static void emit_record(std::uint32_t user, const Point& pos,
                          std::uint64_t seq, const Point& expect, bool stale,
                          bool probe, std::vector<std::byte>& bytes,
                          std::deque<OpRec>& ops) {
    net::LocationUpdate m;
    m.user = geogrid::UserId{user};
    m.location = pos;
    m.seq = seq;
    const std::vector<std::byte> frame = net::encode_frame(net::Message{m});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    OpRec r;
    r.kind = OpKind::kUpdate;
    r.stale = stale;
    r.probe = probe;
    r.len = static_cast<std::uint32_t>(frame.size());
    r.user = user;
    r.seq = seq;
    r.pos = pos;
    r.expect_pos = expect;
    ops.push_back(r);
  }

  const WorkloadSpec& spec_;
  Rect plane_;
  const RegionTable& regions_;
  const std::vector<std::uint32_t>& users_;
  std::uint32_t probe_user_;
  Point probe_to_;
  Rng rng_;
  std::vector<Point> cur_, prev_;
  std::vector<std::uint64_t> seq_;
  std::size_t k_ = 0;
  std::size_t round_ = 0;
  bool stale_pending_ = false;
  std::size_t emitted_ = 0;
  std::uint64_t probe_seq_ = 1;  ///< the preload was seq 1
};

}  // namespace

Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, const RegionTable& regions) {
  Plan plan;
  plan.spec = workload_spec(workload);
  plan.seed = seed;
  plan.regions = &regions;
  const WorkloadSpec& s = plan.spec;
  plan.plane = geogrid::workload::HotSpotField::Options().plane;
  const Rect& pl = plan.plane;
  plan.users = s.users;
  // The hot spots are part of the workload, like the plane: the same for
  // every seed, so that seeds vary the draws and not the geography.
  Rng field_rng(kFieldSeed);
  const Field field(pl, field_rng);
  Rng rng(seed);
  const double x_right = pl.x + pl.width - kEdge;
  const double x_strip = s.x_split - kEdge;

  // Boundary probes.
  Probes& pr = plan.probe;
  {
    const RegionRect* a = nullptr;
    for (const RegionRect& r : regions.regions()) {
      if (r.rect.x >= kUpdateProbeWest[0] && r.rect.x <= kUpdateProbeWest[1] &&
          (a == nullptr || r.id < a->id)) {
        a = &r;
      }
    }
    PB_REQUIRE(a != nullptr, "no region edge for the update probe");
    const Rect& ar = a->rect;
    pr.to = {ar.x - 5e-10, ar.y + ar.height / 2};
    pr.from = {ar.x + 1e-3, pr.to.y};
    pr.from_region = regions.region_at(pr.from);
    pr.to_region = regions.region_at(pr.to);
    PB_REQUIRE(pr.from_region == a->id && pr.to_region != kNoRegion &&
                   pr.to_region != a->id && pr.from.x < s.x_split,
               "update probe does not cross a region edge in the strip");
    PB_REQUIRE(!regions.near_edge(kRangeProbeAt, 1e-4) &&
                   kRangeProbeAt.x > s.x_split + kMargin,
               "range probe user is not clear of edges and movers");
    pr.first_user = static_cast<std::uint32_t>(s.users) + 1;
    for (std::uint32_t i = 0; i < kProbeUsers; ++i) {
      pr.reports.push_back({pr.first_user + i, 1, pr.from});
    }
  }
  std::vector<std::uint64_t> probe_seq(kProbeUsers, 1);
  auto probe_report = [&](std::size_t conn) {
    pr.reports.push_back({pr.first_user + static_cast<std::uint32_t>(conn),
                          ++probe_seq[conn], pr.to});
    return static_cast<std::uint32_t>(pr.reports.size() - 1);
  };

  // Resident population; movers are drawn from the strip.
  std::vector<Point> pos(plan.users + 1);
  std::vector<std::uint64_t> seq(plan.users + 1, 1);
  plan.is_mover.assign(plan.users + 1, 0);
  plan.tracked.assign(plan.users + 1, 0);
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    if (u == pr.range_user) {
      pos[u] = kRangeProbeAt;
    } else {
      do {
        pos[u] = field.sample(rng, pl.x, x_right);
      } while (regions.near_edge(pos[u], kEdgeMargin));
    }
    plan.reports.push_back({u, 1, pos[u]});
    if (pos[u].x < s.x_split &&
        (s.mover_cap == 0 || plan.movers.size() < s.mover_cap)) {
      plan.is_mover[u] = 1;
      plan.movers.push_back(u);
    }
  }
  std::vector<Point> static_by_x;
  std::vector<std::uint32_t> static_users;
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    if (plan.is_mover[u]) continue;
    static_users.push_back(u);
    static_by_x.push_back(pos[u]);
  }
  std::sort(static_by_x.begin(), static_by_x.end(),
            [](const Point& a, const Point& b) { return a.x < b.x; });
  PB_REQUIRE(!static_users.empty() && !plan.movers.empty(),
          "workload needs both static users and movers");

  // Query pool over the static part of the plane.
  const double q_lo = s.x_split + kMargin;
  for (std::size_t i = 0; i < s.pool_size; ++i) {
    PoolQuery q;
    const double roll = rng.uniform();
    if (roll < s.locate_share) {
      q.kind = OpKind::kLocate;
      q.user = static_users[rng.index(static_users.size())];
    } else if (roll < s.locate_share + s.range_share) {
      q.kind = OpKind::kRange;
      // Redrawn while a static user lies within kEdgeMargin of its edges.
      do {
        const Point c = field.sample(rng, q_lo, x_right);
        const double w = rng.uniform(0.5, 2.0);
        const double h = rng.uniform(0.5, 2.0);
        q.rect = Rect{std::clamp(c.x - w / 2, q_lo, pl.x + pl.width - w),
                      std::clamp(c.y - h / 2, pl.y, pl.y + pl.height - h), w,
                      h};
      } while (edge_has_point(static_by_x, q.rect));
    } else {
      q.kind = OpKind::kNearest;
      q.k = s.knn_k;
      // Keep the centre only when k static users lie closer than the mover
      // strip: then no mover can be among its k nearest.
      for (int attempt = 0;; ++attempt) {
        PB_REQUIRE(attempt < 100'000, "no kNN centre clears the mover strip");
        const Point c = field.sample(rng, q_lo, x_right);
        const double radius = std::min(1.0, c.x - s.x_split);
        if (count_within(static_by_x, c, radius) >= q.k) {
          q.center = c;
          break;
        }
      }
    }
    plan.pool.push_back(q);
    append_query(plan.pool_stream, q, static_cast<std::uint32_t>(i));
  }
  {
    PoolQuery q;
    q.kind = OpKind::kRange;
    q.rect = Rect{kRangeProbeAt.x, kRangeProbeAt.y - 0.25, 0.5, 0.5};
    pr.range_pool = static_cast<std::uint32_t>(plan.pool.size());
    plan.pool.push_back(q);
    append_query(plan.pool_stream, q, pr.range_pool, 0.0, true);
  }

  // Standing subscriptions: friends track movers, areas sit on the strip.
  for (std::size_t i = 0; i < s.subs; ++i) {
    SubSpec sub;
    sub.id = i + 1;
    const double roll = rng.uniform();
    if (roll < s.friend_share) {
      sub.kind = SubSpec::Kind::kFriend;
      sub.tracked = plan.movers[rng.index(plan.movers.size())];
      plan.tracked[sub.tracked] = 1;
      sub.filter = "friend:" + std::to_string(sub.tracked);
    } else {
      sub.kind = roll < s.friend_share + s.range_sub_share
                     ? SubSpec::Kind::kRange
                     : SubSpec::Kind::kGeofence;
      // Kept off the update probe, whose reports must notify no one.
      const Rect guard{std::min(pr.from.x, pr.to.x) - 0.01,
                       std::min(pr.from.y, pr.to.y) - 0.01,
                       std::abs(pr.from.x - pr.to.x) + 0.02,
                       std::abs(pr.from.y - pr.to.y) + 0.02};
      do {
        const Point c = field.sample(rng, pl.x, x_strip);
        const double r = rng.uniform(0.1, 0.5);
        const double x0 = std::max(pl.x, c.x - r);
        const double y0 = std::max(pl.y, c.y - r);
        sub.area = Rect{x0, y0, std::min(pl.x + pl.width, c.x + r) - x0,
                        std::min(pl.y + pl.height, c.y + r) - y0};
      } while (touches(sub.area, guard));
      sub.filter = (sub.kind == SubSpec::Kind::kRange ? "range:" : "geofence:") +
                   std::to_string(sub.id);
    }
    plan.subs.push_back(sub);
  }

  // Connections: closed-loop classes take [0, n), the subscriber is last.
  plan.conns = std::max<std::size_t>(s.update_conns, s.query_conns) + 1;
  if (s.burst_period > 0.0) plan.conns = 3;  // updates, queries, subscriber
  plan.sub_conn = plan.conns - 1;

  // Preload: every user's first report, spread over all connections.
  plan.preload.resize(plan.conns);
  for (Stream& st : plan.preload) st.window = 2048;
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    append(plan.preload[u % plan.conns], update_msg(plan.reports[u - 1]),
           u - 1, OpKind::kUpdate);
  }
  for (std::uint32_t i = 0; i < kProbeUsers; ++i) {
    append(plan.preload[i % plan.conns], update_msg(pr.reports[i]), i,
           OpKind::kUpdate, 0.0, true);
  }

  // Subscriptions: registered on the subscriber connection, pipelined.
  plan.subscribe.window = 32;
  for (std::uint32_t i = 0; i < plan.subs.size(); ++i) {
    const SubSpec& sub = plan.subs[i];
    net::Subscribe m;
    m.sub_id = sub.id;
    m.area = sub.area;
    m.filter = sub.filter;
    append(plan.subscribe, m, i, OpKind::kSubscribe);
  }

  // Closed-loop updaters split the movers between them.
  plan.updater_users.resize(s.update_conns);
  for (const std::uint32_t u : plan.movers) {
    if (s.update_conns > 0) plan.updater_users[u % s.update_conns].push_back(u);
  }

  // Open-loop schedules: rate x seconds requests in whole rounds, due
  // evenly (queries) or in bursts (updates) from the start of the timed
  // phase, each round led by a probe.
  plan.timed_static.resize(plan.conns);
  auto move = [&](std::uint32_t u) {
    const Point p = step(pos[u], rng, s, pl, regions);
    pos[u] = p;
    plan.reports.push_back({u, ++seq[u], p});
    return static_cast<std::uint32_t>(plan.reports.size() - 1);
  };
  if (s.update_rate > 0.0) {
    const std::size_t conn = s.burst_period > 0.0 ? 0 : plan.sub_conn;
    Stream& st = plan.timed_static[conn];
    st.closed_loop = false;
    const std::size_t n = whole_rounds(s.update_rate, seconds);
    auto add = [&](std::size_t i, std::uint32_t user, double due) {
      if (i % kRound == 0) {
        const std::uint32_t r = probe_report(conn);
        append(st, update_msg(pr.reports[r]), r, OpKind::kUpdate, due, true);
        return;
      }
      const std::uint32_t r = move(user);
      append(st, update_msg(plan.reports[r]), r, OpKind::kUpdate, due);
    };
    if (s.burst_period > 0.0) {
      const std::size_t per_burst = static_cast<std::size_t>(
          std::llround(s.update_rate * s.burst_period));
      PB_REQUIRE(per_burst <= plan.movers.size(), "burst larger than movers");
      std::vector<std::uint32_t> deck = plan.movers;
      for (std::size_t b = 0; b * per_burst < n; ++b) {
        for (std::size_t i = 0; i < per_burst; ++i) {
          std::swap(deck[i], deck[i + rng.index(deck.size() - i)]);
          add(b * per_burst + i, deck[i],
              static_cast<double>(b) * s.burst_period);
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        add(i, plan.movers[rng.index(plan.movers.size())],
            static_cast<double>(i) / s.update_rate);
      }
    }
  }
  if (s.query_rate > 0.0) {
    Stream& st = plan.timed_static[s.burst_period > 0.0 ? 1 : plan.sub_conn];
    st.closed_loop = false;
    const std::size_t n = whole_rounds(s.query_rate, seconds);
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool probe = i % kRound == 0;
      const std::size_t q = probe ? pr.range_pool : next++ % pr.range_pool;
      append_query(st, plan.pool[q], static_cast<std::uint32_t>(q),
                   static_cast<double>(i) / s.query_rate, probe);
    }
  }

  // Each user's static reports in seq order.
  plan.user_offsets.assign(plan.users + 2, 0);
  for (const Report& r : plan.reports) ++plan.user_offsets[r.user + 1];
  std::partial_sum(plan.user_offsets.begin(), plan.user_offsets.end(),
                   plan.user_offsets.begin());
  plan.user_reports.assign(plan.reports.size(), 0);
  std::vector<std::uint32_t> fill(plan.user_offsets.begin(),
                                  plan.user_offsets.end() - 1);
  for (std::uint32_t i = 0; i < plan.reports.size(); ++i) {
    plan.user_reports[fill[plan.reports[i].user]++] = i;
  }
  return plan;
}

std::unique_ptr<Feed> static_feed(const Plan& plan, const Stream& stream) {
  return std::make_unique<StaticFeed>(plan, stream);
}

std::vector<std::unique_ptr<Feed>> timed_feeds(const Plan& plan) {
  const WorkloadSpec& s = plan.spec;
  std::vector<std::unique_ptr<Feed>> feeds(plan.conns);
  for (std::size_t c = 0; c < plan.conns; ++c) {
    if (c < s.update_conns) {
      feeds[c] = std::make_unique<IngestFeed>(plan, c);
    } else if (c < s.query_conns) {
      feeds[c] = std::make_unique<PoolFeed>(
          plan, s.query_window, c * plan.pool.size() / s.query_conns);
    } else if (!plan.timed_static[c].ops.empty()) {
      feeds[c] = static_feed(plan, plan.timed_static[c]);
    }
  }
  return feeds;
}

std::vector<Stream> make_sweep(const Plan& plan) {
  std::vector<Stream> sweep(plan.conns);
  for (Stream& st : sweep) st.window = 256;
  for (std::uint32_t u = 1; u <= plan.users; ++u) {
    net::LocateRequest m;
    m.request_id = std::uint64_t{u} + 1;
    m.user = geogrid::UserId{u};
    append(sweep[u % plan.conns], m, u, OpKind::kLocate);
  }
  return sweep;
}

}  // namespace pb
