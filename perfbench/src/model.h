// The benchmark's own model of what a correct server answers.
//
// Nothing here calls into the program's engines: region ownership is a
// linear scan of the partition's region rects, the directory is a
// last-writer-wins map keyed by seq, range answers are an exhaustive scan
// with the half-open cover test (west/south edge excluded, east/north edge
// included), kNN is an exhaustive distance ranking ordered by
// (distance, user id), and notifications follow the enter/leave/move rules
// stated in pubsub/notification_engine.h.  The scans run over an x-sorted
// copy of the static population so that checking a run stays cheap; the
// self-test pins them to the literal all-pairs scans.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/geometry.h"

namespace pb {

using geogrid::Point;
using geogrid::Rect;

inline constexpr std::uint32_t kNoRegion = 0xffffffffu;

/// Half-open cover test: x in (left, right], y in (bottom, top].
inline bool covers(const Rect& r, const Point& p) {
  return r.x < p.x && p.x <= r.x + r.width && r.y < p.y &&
         p.y <= r.y + r.height;
}

/// True when `p` lies within `margin` of the boundary of `r`.
inline bool near_boundary(const Rect& r, const Point& p, double margin) {
  const bool in_outer = r.x - margin <= p.x && p.x <= r.x + r.width + margin &&
                        r.y - margin <= p.y && p.y <= r.y + r.height + margin;
  const bool in_inner = r.x + margin < p.x && p.x < r.x + r.width - margin &&
                        r.y + margin < p.y && p.y < r.y + r.height - margin;
  return in_outer && !in_inner;
}

struct RegionRect {
  std::uint32_t id = kNoRegion;
  Rect rect{};
};

/// One record of a reply, as the model compares it.
struct RecordKey {
  std::uint32_t user = 0;
  std::uint64_t seq = 0;
  Point pos{};
  friend bool operator==(const RecordKey&, const RecordKey&) = default;
};

/// Fingerprint of an ordered record list (a range or kNN answer).
std::uint64_t hash_records(std::span<const RecordKey> records);

/// One location report the generator planned (a fresh update).
struct Report {
  std::uint32_t user = 0;
  std::uint64_t seq = 0;
  Point pos{};
};

/// The partition's regions.  region_at scans the rects linearly; the
/// bucketed variant scans only the rects overlapping the point's bucket of
/// a uniform grid, which gives the same answer (the self-test pins it) at
/// a cost that keeps up with the ack rate.
class RegionTable {
 public:
  RegionTable() = default;
  explicit RegionTable(std::vector<RegionRect> regions);
  /// The region whose rect covers `p`, or kNoRegion.
  std::uint32_t region_at(const Point& p) const;
  std::uint32_t region_at_bucketed(const Point& p) const;
  const std::vector<RegionRect>& regions() const { return regions_; }
  /// True when `p` lies within `margin` of some region's edge.
  bool near_edge(const Point& p, double margin) const;

 private:
  std::size_t bucket(double v, double lo, double span) const;

  std::vector<RegionRect> regions_;
  Rect bounds_{};
  std::size_t dim_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;  ///< indices into regions_
};

/// An ack names the region that held the user right after the flush that
/// processed the update: the region covering one of `candidates` (this
/// report's position, or a later report of the user already sent).
bool ack_region_matches(const RegionTable& table,
                        std::span<const Point> candidates, std::uint32_t got);

/// Exhaustive range / kNN over a frozen population.
class StaticIndex {
 public:
  void build(std::span<const RecordKey> population);
  /// Every record covered by `rect`, ordered by user id.
  std::vector<RecordKey> range(const Rect& rect) const;
  /// The k records nearest `p`, ordered by (distance, user id).
  std::vector<RecordKey> nearest(const Point& p, std::uint32_t k) const;

 private:
  std::vector<RecordKey> by_x_;  ///< sorted by x
};

/// Literal all-pairs versions, used by the self-test as the reference for
/// StaticIndex.
std::vector<RecordKey> brute_range(std::span<const RecordKey> pop,
                                   const Rect& rect);
std::vector<RecordKey> brute_nearest(std::span<const RecordKey> pop,
                                     const Point& p, std::uint32_t k);

/// What a locate reply must say.
struct LocateAnswer {
  bool found = false;
  std::uint32_t user = 0;
  std::uint64_t seq = 0;
  Point pos{};
  std::uint32_t region = kNoRegion;
  friend bool operator==(const LocateAnswer&, const LocateAnswer&) = default;
};

/// Fingerprint of a locate answer.
std::uint64_t hash_locate(const LocateAnswer& a);

/// A standing subscription as the generator registered it.
struct SubSpec {
  enum class Kind : std::uint8_t { kFriend, kRange, kGeofence };
  std::uint64_t id = 0;
  Kind kind = Kind::kRange;
  Rect area{};
  std::uint32_t tracked = 0;  ///< friend only
  std::string filter;         ///< the topic every Notify must carry
};

/// One Notify as received.
struct NotifyGot {
  std::uint64_t sub_id = 0;
  std::string topic;
  std::string payload;
  double recv_s = 0.0;
};

/// "%.6f" rendering, the precision the Notify payload carries.
std::string fixed6(double v);

/// Checks a Notify stream against the notification rules.
///
/// Legality is checked per (subscription, user) as the stream arrives: the
/// announced position is a later report of that user, enter / leave / move
/// alternate legally for the subscription's kind, and the position agrees
/// with the event.  Completeness is checked at the end for every
/// *isolated* report — one sent after its predecessor was acked and acked
/// before its successor was sent, so it was applied in a flush of its own
/// and the drain compared exactly its predecessor's position with its own:
/// each subscription must have announced exactly the event those two
/// positions imply.
class NotifyChecker {
 public:
  /// `user_offsets` / `user_reports` list each user's report indices in seq
  /// order; `initial_pos` is where each user stood when the subscriptions
  /// were registered.
  NotifyChecker(std::span<const SubSpec> subs,
                std::span<const Report> reports,
                std::span<const std::uint32_t> user_offsets,
                std::span<const std::uint32_t> user_reports,
                std::span<const Point> initial_pos);

  /// Validates one Notify in arrival order; returns the index of the
  /// report it announces.  Throws CheckFailure on an illegal event.
  std::uint32_t feed(const NotifyGot& n);

  /// After a quiescent end: every isolated report produced exactly its
  /// implied events; the membership the stream implies equals containment
  /// of the final positions for every (subscription, user among `movers`);
  /// each friend stream ends at its tracked user's final position.
  void finish(std::span<const Point> final_pos,
              std::span<const std::uint32_t> movers,
              std::span<const std::uint8_t> isolated) const;

 private:
  struct PairState {
    bool member = false;
    std::int64_t last_report = -1;
  };
  static std::uint64_t key(std::uint64_t sub, std::uint32_t low) {
    return (sub << 32) ^ low;
  }
  bool initial_member(const SubSpec& s, std::uint32_t user) const;

  std::unordered_map<std::uint64_t, const SubSpec*> subs_;
  std::span<const SubSpec> sub_list_;
  std::span<const Report> reports_;
  std::span<const std::uint32_t> user_offsets_;
  std::span<const std::uint32_t> user_reports_;
  std::span<const Point> initial_pos_;
  std::unordered_map<std::uint64_t, PairState> pairs_;
  /// (subscription, report) -> announced event ('e', 'l' or 'm').
  std::unordered_map<std::uint64_t, char> seen_;
  std::vector<std::uint32_t> announced_;  ///< by report: notifies naming it
};

}  // namespace pb
