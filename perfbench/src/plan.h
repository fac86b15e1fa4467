// Workload definitions and the requests they generate from --seed.
//
// Every workload drives the same traffic classes over at most four
// connections — updates, queries, subscriptions and the Notify pushes they
// cause — at workload-specific intensities, so every end-to-end metric is
// measured on every workload while each workload loads a different layer:
//
//   ingest  three connections stream small moves in a closed loop (window
//           2048 each, ~1% stale retransmissions); the fourth holds friend
//           subscriptions on some movers and sends probe queries at a low
//           open-loop rate.
//   query   three connections send the locate/range/kNN mix in a closed
//           loop (window 64 each) against a static population; the fourth
//           holds friend subscriptions on a few trickle movers and sends
//           their updates at a low open-loop rate.
//   live    one connection sends movers in periodic bursts, one sends
//           queries at a uniform rate (both open loop, well below
//           saturation), one holds friend, range and geofence
//           subscriptions and receives the Notify pushes.
//
// Geometry keeps every answer checkable exactly: users that move live in
// the strip x < x_split, and range / kNN queries only look at the rest of
// the plane (a kNN centre is kept only when k static users lie closer than
// the strip), so query answers never depend on when an update was applied.
//
// Every stream of the timed phase is made of whole rounds of kRound
// requests, each led by a fixed boundary probe (see Probes) that fails
// while the server's boundary fault is present; `attempted` counts the
// timed phase's requests and `failed` the probes that met the fault.
//
// Requests reach the wire through Feeds.  Open-loop schedules, the preload,
// the subscriptions, the query pool and the final sweep are encoded during
// set-up; a closed-loop feed copies them out (cycling through the pool).
// The closed-loop ingest stream is the exception: at the server's
// saturation rate ten seconds of it would take about a gigabyte encoded,
// so IngestFeed encodes it in chunks a few windows ahead of the sender,
// with the same per-message encoder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "model.h"

namespace pb {

enum class OpKind : std::uint8_t { kUpdate, kLocate, kRange, kNearest, kSubscribe };

inline constexpr std::uint32_t kNoReport = 0xffffffffu;

/// One request of a pre-encoded stream.
struct Op {
  std::uint32_t off = 0;   ///< byte offset of the frame in the stream
  std::uint32_t len = 0;   ///< framed size
  std::uint32_t arg = 0;   ///< update: report index; query: pool index;
                           ///< subscribe: subscription index; sweep: user
  OpKind kind = OpKind::kUpdate;
  bool probe = false;      ///< a boundary probe (see Probes); update: arg
                           ///< indexes Probes::reports
  double due = 0.0;        ///< open loop: seconds after the phase start
};

struct Stream {
  std::vector<std::byte> bytes;
  std::vector<Op> ops;
  bool closed_loop = true;
  std::size_t window = 1;
};

/// A request on its way through the wire, with what its reply is checked
/// against.
struct OpRec {
  OpKind kind = OpKind::kUpdate;
  bool stale = false;
  bool probe = false;             ///< a boundary probe (see Probes)
  std::uint32_t len = 0;          ///< framed size
  std::uint32_t arg = 0;          ///< as Op::arg
  std::uint32_t report = kNoReport;  ///< update from a static stream
  std::uint32_t user = 0;         ///< update: the reported record
  std::uint64_t seq = 0;
  Point pos{};
  Point expect_pos{};  ///< update: where the user stands after the flush
  double due = 0.0;    ///< open loop: seconds after the phase start
  double sent = 0.0;   ///< set by the wire when the frame is released
};

/// One connection's requests for one phase.
class Feed {
 public:
  Feed(bool closed_loop, std::size_t window)
      : closed_loop_(closed_loop), window_(window) {}
  virtual ~Feed() = default;
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// Appends the next up to `max` requests: frames to `bytes`, records to
  /// `ops`.  Returns how many; 0 once the feed is exhausted.  The sequence
  /// never depends on how it is split into calls.
  virtual std::size_t fill(std::size_t max, std::vector<std::byte>& bytes,
                           std::deque<OpRec>& ops) = 0;

  bool closed_loop() const { return closed_loop_; }
  std::size_t window() const { return window_; }

 private:
  bool closed_loop_;
  std::size_t window_;
};

/// A query of the pool; the same entry may be sent many times.
struct PoolQuery {
  OpKind kind = OpKind::kLocate;
  std::uint32_t user = 0;    ///< locate
  Rect rect{};               ///< range
  Point center{};            ///< kNN
  std::uint32_t k = 0;
};

struct WorkloadSpec {
  std::string name;
  std::size_t users = 0;          ///< resident population
  double x_split = 0.0;           ///< movers live at x < x_split
  std::size_t mover_cap = 0;      ///< 0 = every user in the strip moves
  double step = 0.05;             ///< max move per axis (miles)

  std::size_t update_conns = 0;   ///< closed-loop updater connections
  std::size_t update_window = 0;
  double stale_fraction = 0.0;
  double update_rate = 0.0;       ///< open-loop updates per second
  double burst_period = 0.0;      ///< > 0: open-loop updates come in bursts

  std::size_t query_conns = 0;    ///< closed-loop query connections
  std::size_t query_window = 0;
  double query_rate = 0.0;        ///< open-loop queries per second
  std::size_t pool_size = 0;
  double locate_share = 0.60;
  double range_share = 0.30;      ///< rest of the mix is kNN
  std::uint32_t knn_k = 8;

  std::size_t subs = 0;           ///< registered during set-up
  double friend_share = 1.0;
  double range_sub_share = 0.0;   ///< rest of the rect subs are geofences
};

WorkloadSpec workload_spec(const std::string& name);

/// Every stream of the timed phase is made of whole rounds of this many
/// requests, and the first request of each round is a boundary probe, so
/// `failed` is the same share of `attempted` in every run.
inline constexpr std::size_t kRound = 1000;

/// Fixed requests, the same for every seed, that land in the band where
/// the server's region and range tests are closed and widened by kGeoEps
/// while the half-open rule excludes the point (the boundary FOUND line in
/// CHANGES.md).  Each one fails every time the fault is present.
///
/// Update probe: probe user `first_user + stream` is preloaded at `from`,
/// inside region `from_region`; every probe then reports `to`, 5e-10 mile
/// outside that region's west (or south) edge, inside `to_region`.  The
/// fault keeps the user in `from_region` and the ack names it.
///
/// Range probe: static user `range_user` stands at a fixed point and pool
/// query `range_pool` has its west edge exactly there; the fault puts the
/// user in the answer.
struct Probes {
  Point from{}, to{};
  std::uint32_t from_region = kNoRegion, to_region = kNoRegion;
  std::uint32_t first_user = 0;
  std::vector<Report> reports;  ///< preload reports, then timed ones
  std::uint32_t range_user = 1;
  std::uint32_t range_pool = 0;
};

/// Probe users, one per connection.
inline constexpr std::uint32_t kProbeUsers = 4;
/// Everything one run sends, generated from the seed before any timing
/// (except the closed-loop ingest stream, see IngestFeed).
struct Plan {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  const RegionTable* regions = nullptr;
  Rect plane{};
  std::size_t users = 0;  ///< user ids are 1..users

  /// Reports of the static streams; [0, users) are the preload.
  std::vector<Report> reports;
  std::vector<std::uint8_t> is_mover;   ///< by user id
  std::vector<std::uint32_t> movers;
  std::vector<std::uint8_t> tracked;    ///< by user id: a friend sub follows
  std::vector<PoolQuery> pool;          ///< the probe is the last entry
  Stream pool_stream;                   ///< every pool query, encoded once
  Probes probe;
  std::vector<SubSpec> subs;

  std::vector<Stream> preload;          ///< one per connection
  Stream subscribe;                     ///< on the subscriber connection
  std::vector<Stream> timed_static;     ///< open-loop schedules, by connection
  std::size_t conns = 0;
  std::size_t sub_conn = 0;             ///< receives every Notify

  /// User ids each closed-loop updater connection cycles through.
  std::vector<std::vector<std::uint32_t>> updater_users;

  /// Each user's static reports in seq order (CSR over `reports`).
  std::vector<std::uint32_t> user_offsets;
  std::vector<std::uint32_t> user_reports;
};

/// Points the generator draws at random stay this far (miles) from every
/// region edge, and random range queries keep every static user this far
/// from their edges: a random point within kGeoEps of an edge would fail
/// on some seeds only, which would make `failed` vary between runs.  The
/// fault it would hit is exercised every round by the Probes instead.
inline constexpr double kEdgeMargin = 1e-8;

/// `regions` is the served partition; the plan keeps a reference.
Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, const RegionTable& regions);

/// Feeds for a pre-encoded stream.
std::unique_ptr<Feed> static_feed(const Plan& plan, const Stream& stream);

/// The timed phase's feeds, one per connection (null = idle).  Built fresh
/// for the wire run and again, identically, for the traced replay.
std::vector<std::unique_ptr<Feed>> timed_feeds(const Plan& plan);

/// The final locate sweep over every user, one stream per connection.
std::vector<Stream> make_sweep(const Plan& plan);

}  // namespace pb
