#include "replay.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/framing.h"
#include "serve/server.h"
#include "stack.h"

namespace pb {

namespace net = geogrid::net;
namespace mob = geogrid::mobility;

namespace {

/// The replay covers at most this many timed requests; self times are
/// scaled from that prefix to the whole run.
constexpr std::uint64_t kMaxReplayed = 1'500'000;

struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  int batch;
  bool timed;  ///< counts towards the timed-phase self times
};

class Tracer {
 public:
  int open(const char* name, int parent, int batch, bool timed) {
    spans_.push_back({name, now_s(), 0.0, parent, batch, timed});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of spans called `name`.
  double total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.end - s.start;
    }
    return t;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span.
struct Scope {
  Tracer& t;
  int id;
  Scope(Tracer& tr, const char* name, int parent, int batch, bool timed)
      : t(tr), id(tr.open(name, parent, batch, timed)) {}
  ~Scope() { t.close(id); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

struct StagedAck {
  std::uint32_t conn;
  geogrid::UserId user;
  std::uint64_t seq;
};

struct StagedQuery {
  std::uint32_t conn;
  net::MsgType type;
  std::uint64_t id;
  geogrid::UserId user;
};

/// The server's batching, driven by the replayed frames.
class Replayer {
 public:
  Replayer(Stack& stack, geogrid::mobility::ShardedDirectory& one_shard,
           std::size_t conns, Tracer& tracer)
      : st_(stack), one_(one_shard), tracer_(tracer), out_(conns) {}

  std::size_t ingest_batch = 4096;
  std::size_t query_batch = 1;
  bool timed = false;

  std::uint64_t frames = 0, appended = 0, acks = 0, results = 0,
                notifies = 0, subscribes = 0, updates = 0, drains = 0;

  void feed(std::uint32_t conn, const std::byte* data, std::size_t n) {
    net::FrameDecoder dec;
    std::vector<net::Message> msgs;
    {
      Scope s(tracer_, "net.decode", -1, batch_, timed);
      dec.feed(data, n);
      for (;;) {
        net::FrameDecoder::Result r = dec.next();
        if (r.status != net::FrameDecoder::Status::kFrame) break;
        msgs.push_back(std::move(*r.message));
      }
      frames += msgs.size();
    }
    for (net::Message& m : msgs) handle(conn, m);
    if (records_.size() >= ingest_batch) flush_ingest();
    if (queries_.size() >= query_batch) {
      flush_ingest();
      flush_queries();
    }
  }

  void finish() {
    flush_ingest();
    flush_queries();
  }

 private:
  void handle(std::uint32_t conn, const net::Message& m) {
    if (const auto* u = std::get_if<net::LocationUpdate>(&m)) {
      records_.push_back({u->user, u->location, u->seq, 0.0});
      acks_.push_back({conn, u->user, u->seq});
      return;
    }
    if (const auto* l = std::get_if<net::LocateRequest>(&m)) {
      queries_.push_back(mob::Query::locate(l->user));
      meta_.push_back({conn, net::MsgType::kLocateRequest, l->request_id,
                       l->user});
      return;
    }
    if (const auto* r = std::get_if<net::LocationQuery>(&m)) {
      queries_.push_back(mob::Query::range(r->area));
      meta_.push_back({conn, net::MsgType::kLocationQuery, r->query_id, {}});
      return;
    }
    if (const auto* k = std::get_if<net::NearestRequest>(&m)) {
      queries_.push_back(mob::Query::nearest(k->center, k->k));
      meta_.push_back({conn, net::MsgType::kNearestRequest, k->query_id, {}});
      return;
    }
    if (const auto* sub = std::get_if<net::Subscribe>(&m)) {
      Scope s(tracer_, "pubsub.subscribe", -1, batch_, timed);
      const geogrid::serve::SubscriptionSpec spec =
          geogrid::serve::subscription_spec(*sub);
      if (spec.kind == geogrid::pubsub::SubKind::kFriend) {
        st_.subscriptions.subscribe_friend(*sub, spec.friend_user);
      } else {
        st_.subscriptions.subscribe(*sub, spec.kind);
      }
      st_.subscriptions.refresh();
      ++subscribes;
    }
  }

  void flush_ingest() {
    if (records_.empty()) return;
    ++batch_;
    Scope parent(tracer_, "serve.flush_ingest", -1, batch_, timed);
    {
      Scope s(tracer_, "directory.apply", parent.id, batch_, timed);
      st_.directory.apply_updates(records_);
    }
    {
      // Same batches through a one-shard directory; outside the accounting.
      Scope s(tracer_, "directory.apply_1shard", parent.id, batch_, false);
      one_.apply_updates(records_);
    }
    std::vector<geogrid::RegionId> regions(acks_.size());
    {
      Scope s(tracer_, "directory.region_of", parent.id, batch_, timed);
      for (std::size_t i = 0; i < acks_.size(); ++i) {
        regions[i] = st_.directory.region_of(acks_[i].user);
      }
    }
    {
      Scope s(tracer_, "net.append", parent.id, batch_, timed);
      for (std::size_t i = 0; i < acks_.size(); ++i) {
        net::LocationUpdateAck ack;
        ack.user = acks_[i].user;
        ack.seq = acks_[i].seq;
        ack.region = regions[i];
        net::append_frame(net::Message{ack}, out_[acks_[i].conn]);
      }
      appended += acks_.size();
    }
    std::vector<geogrid::pubsub::Notification> batch;
    {
      Scope s(tracer_, "pubsub.drain", parent.id, batch_, timed);
      batch = st_.notifications.drain();
      ++drains;
    }
    std::vector<net::Notify> msgs(batch.size());
    {
      Scope s(tracer_, "pubsub.to_notify", parent.id, batch_, timed);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        st_.notifications.to_notify(batch[i], msgs[i]);
      }
    }
    {
      Scope s(tracer_, "net.append", parent.id, batch_, timed);
      for (const net::Notify& n : msgs) {
        net::append_frame(net::Message{n}, out_.back());
      }
      appended += msgs.size();
    }
    updates += records_.size();
    acks += acks_.size();
    notifies += msgs.size();
    records_.clear();
    acks_.clear();
    for (auto& o : out_) o.clear();
  }

  void flush_queries() {
    if (queries_.empty()) return;
    ++batch_;
    Scope parent(tracer_, "serve.flush_queries", -1, batch_, timed);
    std::vector<mob::QueryResult> res;
    {
      Scope s(tracer_, "query.run", parent.id, batch_, timed);
      res = st_.queries.run(queries_);
    }
    std::vector<net::Message> replies;
    replies.reserve(res.size());
    {
      Scope s(tracer_, "query.encode", parent.id, batch_, timed);
      for (std::size_t i = 0; i < res.size(); ++i) {
        const StagedQuery& q = meta_[i];
        if (q.type == net::MsgType::kLocateRequest) {
          net::LocateReply reply;
          reply.request_id = q.id;
          reply.user = q.user;
          reply.found = res[i].found;
          if (res[i].found) {
            reply.location = res[i].located.position;
            reply.seq = res[i].located.seq;
            reply.region = st_.directory.region_of(q.user);
          }
          replies.emplace_back(reply);
        } else {
          net::QueryResult reply;
          reply.query_id = q.id;
          net::Writer w;
          res[i].encode(w);
          reply.payload.assign(reinterpret_cast<const char*>(w.bytes().data()),
                               w.bytes().size());
          replies.emplace_back(std::move(reply));
        }
      }
    }
    {
      Scope s(tracer_, "net.append", parent.id, batch_, timed);
      for (std::size_t i = 0; i < replies.size(); ++i) {
        net::append_frame(replies[i], out_[meta_[i].conn]);
      }
      appended += replies.size();
    }
    results += res.size();
    queries_.clear();
    meta_.clear();
    for (auto& o : out_) o.clear();
  }

  Stack& st_;
  geogrid::mobility::ShardedDirectory& one_;
  Tracer& tracer_;
  int batch_ = 0;
  std::vector<mob::LocationRecord> records_;
  std::vector<StagedAck> acks_;
  std::vector<mob::Query> queries_;
  std::vector<StagedQuery> meta_;
  std::vector<std::vector<std::byte>> out_;  ///< per connection, per flush
};

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kUpdate: return "wire.update";
    case OpKind::kLocate: return "wire.locate";
    case OpKind::kRange: return "wire.range";
    case OpKind::kNearest: return "wire.knn";
    case OpKind::kSubscribe: return "wire.subscribe";
  }
  return "wire.?";
}

/// ns per query of one kind, run alone in batches of the served size.
double kind_ns(Stack& st, const std::vector<mob::Query>& qs,
               std::size_t batch) {
  if (qs.empty()) return 0.0;
  const double t = now_s();
  for (std::size_t i = 0; i < qs.size(); i += batch) {
    const std::size_t n = std::min(batch, qs.size() - i);
    (void)st.queries.run(std::span<const mob::Query>(qs.data() + i, n));
  }
  return (now_s() - t) * 1e9 / static_cast<double>(qs.size());
}

}  // namespace

std::map<std::string, double> replay(const ReplayInput& in) {
  const Plan& plan = *in.plan;
  const PhaseResult& timed = *in.timed;
  Tracer tracer;
  Stack stack;
  geogrid::mobility::ShardedDirectory one_shard(
      stack.sim.partition(),
      geogrid::mobility::ShardedDirectory::Options{.shards = 1,
                                                   .track_deltas = true});
  Replayer rep(stack, one_shard, plan.conns, tracer);

  // Set-up traffic, untimed: preload, then the subscriptions.
  for (std::size_t c = 0; c < plan.preload.size(); ++c) {
    const Stream& s = plan.preload[c];
    rep.feed(static_cast<std::uint32_t>(c), s.bytes.data(), s.bytes.size());
  }
  rep.finish();
  rep.feed(static_cast<std::uint32_t>(plan.sub_conn), plan.subscribe.bytes.data(),
           plan.subscribe.bytes.size());
  const double subscribe_s = tracer.total("pubsub.subscribe");
  const std::uint64_t subscribes = rep.subscribes;

  // The timed stream, chunk by chunk in send order.
  const auto counters0 = stack.notifications.counters();
  rep.frames = rep.appended = rep.acks = rep.results = rep.notifies =
      rep.updates = rep.drains = 0;
  rep.timed = true;
  rep.ingest_batch = static_cast<std::size_t>(
      std::max(1.0, std::round(in.mean_ingest_batch)));
  rep.query_batch = static_cast<std::size_t>(
      std::max(1.0, std::round(in.mean_query_batch)));
  std::vector<mob::Query> by_kind[3];
  std::vector<geogrid::Point> points;
  std::vector<std::unique_ptr<Feed>> feeds = timed_feeds(plan);
  std::vector<std::byte> bytes;
  std::deque<OpRec> ops;
  std::uint64_t replayed = 0;
  for (const SendChunk& ch : timed.log) {
    if (replayed >= kMaxReplayed) break;
    bytes.clear();
    ops.clear();
    const std::size_t got = feeds[ch.conn]->fill(ch.count, bytes, ops);
    PB_REQUIRE(got == ch.count, "replay feed ran short of the wire run");
    replayed += got;
    rep.feed(ch.conn, bytes.data(), bytes.size());
    for (const OpRec& op : ops) {
      if (op.kind == OpKind::kUpdate) {
        if (points.size() < 100'000) points.push_back(op.pos);
        continue;
      }
      const PoolQuery& q = plan.pool[op.arg];
      if (q.kind == OpKind::kLocate && by_kind[0].size() < 20'000) {
        by_kind[0].push_back(mob::Query::locate(geogrid::UserId{q.user}));
      } else if (q.kind == OpKind::kRange && by_kind[1].size() < 20'000) {
        by_kind[1].push_back(mob::Query::range(q.rect));
      } else if (q.kind == OpKind::kNearest && by_kind[2].size() < 20'000) {
        by_kind[2].push_back(mob::Query::nearest(q.center, q.k));
      }
    }
  }
  rep.finish();
  const auto counters1 = stack.notifications.counters();

  // Self time per module over the timed spans.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (const char* m : {"net", "serve", "directory", "query", "pubsub"}) self[m] = 0.0;
  double layer_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].timed) continue;
    const std::string name = spans[i].name;
    const double t = spans[i].end - spans[i].start - child[i];
    self[name.substr(0, name.find('.'))] += t;
    layer_s += t;
  }

  auto per = [](double total, double count, double scale) {
    return count > 0 ? total * scale / count : 0.0;
  };
  std::map<std::string, double> m;
  const double scale = static_cast<double>(timed.sent) /
                       static_cast<double>(std::max<std::uint64_t>(1, replayed));
  for (const auto& [module, t] : self) m[module + ".self_s"] = t * scale;
  // A capped replay covers a prefix of the run: scale its layer time to
  // the whole run.
  m["replay_layer_s"] = layer_s * scale;
  auto timed_total = [&](const char* name) {
    double t = 0.0;
    for (const Span& s : spans) {
      if (s.timed && std::string(name) == s.name) t += s.end - s.start;
    }
    return t;
  };
  m["net.decode_ns_per_frame"] =
      per(timed_total("net.decode"), static_cast<double>(rep.frames), 1e9);
  m["net.append_ns_per_frame"] =
      per(timed_total("net.append"), static_cast<double>(rep.appended), 1e9);
  m["directory.apply_ns_per_update"] =
      per(timed_total("directory.apply"), static_cast<double>(rep.updates), 1e9);
  double one = 0.0;
  for (const Span& s : spans) {
    if (std::string("directory.apply_1shard") == s.name && s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].timed) {
      one += s.end - s.start;
    }
  }
  m["directory.apply_ns_per_update_1shard"] =
      per(one, static_cast<double>(rep.updates), 1e9);
  m["directory.region_of_ns"] =
      per(timed_total("directory.region_of"), static_cast<double>(rep.acks), 1e9);
  m["query.encode_ns"] =
      per(timed_total("query.encode"), static_cast<double>(rep.results), 1e9);
  const double drains =
      static_cast<double>(counters1.drains - counters0.drains);
  m["pubsub.drain_us_per_epoch"] =
      per(timed_total("pubsub.drain"), static_cast<double>(rep.drains), 1e6);
  m["pubsub.candidates_per_epoch"] =
      per(static_cast<double>(counters1.delta_users - counters0.delta_users),
          drains, 1.0);
  m["pubsub.notifications_per_epoch"] =
      per(static_cast<double>(counters1.notifications - counters0.notifications),
          drains, 1.0);
  m["pubsub.match_ns_per_candidate"] =
      stack.notifications.match_latency().percentile_micros(50) * 1e3;
  m["pubsub.to_notify_ns"] =
      per(timed_total("pubsub.to_notify"), static_cast<double>(rep.notifies), 1e9);
  m["pubsub.subscribe_refresh_ns"] =
      per(subscribe_s, static_cast<double>(subscribes), 1e9);

  // Per-kind query cost, each kind alone at the served batch size.
  m["query.locate_ns"] = kind_ns(stack, by_kind[0], rep.query_batch);
  m["query.range_ns"] = kind_ns(stack, by_kind[1], rep.query_batch);
  m["query.knn_ns"] = kind_ns(stack, by_kind[2], rep.query_batch);

  // Cold region resolution (partition walk, no memo hint).
  {
    const auto& resolver = stack.directory.resolver();
    volatile std::uint32_t sink = 0;
    const double t = now_s();
    for (const geogrid::Point& p : points) {
      bool fast = false;
      sink = resolver.resolve(p, geogrid::kInvalidRegion, &fast).value;
    }
    (void)sink;
    m["overlay.resolve_ns"] =
        per(now_s() - t, static_cast<double>(points.size()), 1e9);
  }

  // Spans to disk: the replay's, then one client-side span per request.
  if (!in.trace_path.empty()) {
    ::mkdir(".bench_trace", 0755);
    if (std::FILE* f = std::fopen(in.trace_path.c_str(), "w")) {
      std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\tbatch\n");
      for (std::size_t i = 0; i < spans.size(); ++i) {
        std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\t%d\n", i, spans[i].name,
                     spans[i].start, spans[i].end, spans[i].parent,
                     spans[i].batch);
      }
      std::size_t id = spans.size();
      for (const ClientSpan& c : *in.client_spans) {
        std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t-1\t-1\n", id++,
                     op_name(c.kind), c.start, c.end);
      }
      std::fclose(f);
    }
  }
  return m;
}

}  // namespace pb
