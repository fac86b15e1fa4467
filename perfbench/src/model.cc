#include "model.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace pb {

std::uint64_t hash_records(std::span<const RecordKey> records) {
  Hasher h;
  h.add(records.size());
  for (const RecordKey& r : records) {
    h.add(r.user);
    h.add(r.seq);
    h.add_double(r.pos.x);
    h.add_double(r.pos.y);
  }
  return h.h;
}

RegionTable::RegionTable(std::vector<RegionRect> regions)
    : regions_(std::move(regions)) {
  if (regions_.empty()) return;
  double x0 = regions_[0].rect.x, y0 = regions_[0].rect.y;
  double x1 = x0, y1 = y0;
  for (const RegionRect& r : regions_) {
    x0 = std::min(x0, r.rect.x);
    y0 = std::min(y0, r.rect.y);
    x1 = std::max(x1, r.rect.x + r.rect.width);
    y1 = std::max(y1, r.rect.y + r.rect.height);
  }
  bounds_ = Rect{x0, y0, x1 - x0, y1 - y0};
  dim_ = 64;
  buckets_.assign(dim_ * dim_, {});
  for (std::uint32_t i = 0; i < regions_.size(); ++i) {
    const Rect& r = regions_[i].rect;
    const std::size_t bx0 = bucket(r.x, bounds_.x, bounds_.width);
    const std::size_t bx1 = bucket(r.x + r.width, bounds_.x, bounds_.width);
    const std::size_t by0 = bucket(r.y, bounds_.y, bounds_.height);
    const std::size_t by1 = bucket(r.y + r.height, bounds_.y, bounds_.height);
    for (std::size_t bx = bx0; bx <= bx1; ++bx) {
      for (std::size_t by = by0; by <= by1; ++by) {
        buckets_[by * dim_ + bx].push_back(i);
      }
    }
  }
}

std::size_t RegionTable::bucket(double v, double lo, double span) const {
  const double f = (v - lo) / span * static_cast<double>(dim_);
  if (!(f > 0.0)) return 0;
  return std::min(dim_ - 1, static_cast<std::size_t>(f));
}

std::uint64_t hash_locate(const LocateAnswer& a) {
  Hasher h;
  h.add(a.found);
  h.add(a.user);
  if (a.found) {
    h.add(a.seq);
    h.add_double(a.pos.x);
    h.add_double(a.pos.y);
    h.add(a.region);
  }
  return h.h;
}

std::uint32_t RegionTable::region_at(const Point& p) const {
  for (const RegionRect& r : regions_) {
    if (covers(r.rect, p)) return r.id;
  }
  return kNoRegion;
}

std::uint32_t RegionTable::region_at_bucketed(const Point& p) const {
  if (buckets_.empty()) return kNoRegion;
  // A rect covering p overlaps p's bucket, and the buckets of its edges
  // were computed with the same rounding, so it is listed there.
  const std::size_t bx = bucket(p.x, bounds_.x, bounds_.width);
  const std::size_t by = bucket(p.y, bounds_.y, bounds_.height);
  for (const std::uint32_t i : buckets_[by * dim_ + bx]) {
    if (covers(regions_[i].rect, p)) return regions_[i].id;
  }
  return kNoRegion;
}

bool RegionTable::near_edge(const Point& p, double margin) const {
  if (buckets_.empty()) return false;
  const std::size_t bx0 = bucket(p.x - margin, bounds_.x, bounds_.width);
  const std::size_t bx1 = bucket(p.x + margin, bounds_.x, bounds_.width);
  const std::size_t by0 = bucket(p.y - margin, bounds_.y, bounds_.height);
  const std::size_t by1 = bucket(p.y + margin, bounds_.y, bounds_.height);
  for (std::size_t bx = bx0; bx <= bx1; ++bx) {
    for (std::size_t by = by0; by <= by1; ++by) {
      for (const std::uint32_t i : buckets_[by * dim_ + bx]) {
        if (near_boundary(regions_[i].rect, p, margin)) return true;
      }
    }
  }
  return false;
}

bool ack_region_matches(const RegionTable& table,
                        std::span<const Point> candidates, std::uint32_t got) {
  for (const Point& p : candidates) {
    if (table.region_at_bucketed(p) == got) return true;
  }
  return false;
}

void StaticIndex::build(std::span<const RecordKey> population) {
  by_x_.assign(population.begin(), population.end());
  std::sort(by_x_.begin(), by_x_.end(),
            [](const RecordKey& a, const RecordKey& b) {
              return a.pos.x < b.pos.x ||
                     (a.pos.x == b.pos.x && a.user < b.user);
            });
}

namespace {

bool by_user(const RecordKey& a, const RecordKey& b) { return a.user < b.user; }

/// Sorts (distance, record) pairs by (distance, user id) and keeps k.
std::vector<RecordKey> rank(std::vector<std::pair<double, RecordKey>> cand,
                            std::uint32_t k) {
  std::sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
    return a.first < b.first ||
           (a.first == b.first && a.second.user < b.second.user);
  });
  std::vector<RecordKey> out;
  for (std::size_t i = 0; i < cand.size() && i < k; ++i) {
    out.push_back(cand[i].second);
  }
  return out;
}

}  // namespace

std::vector<RecordKey> StaticIndex::range(const Rect& rect) const {
  std::vector<RecordKey> out;
  auto it = std::lower_bound(
      by_x_.begin(), by_x_.end(), rect.x,
      [](const RecordKey& r, double x) { return r.pos.x < x; });
  const double right = rect.x + rect.width;
  for (; it != by_x_.end() && it->pos.x <= right; ++it) {
    if (covers(rect, it->pos)) out.push_back(*it);
  }
  std::sort(out.begin(), out.end(), by_user);
  return out;
}

std::vector<RecordKey> StaticIndex::nearest(const Point& p,
                                            std::uint32_t k) const {
  // Exhaustive: rank every record by squared distance, then order a
  // margin of the best by the exact (hypot, user id) key, so rounding
  // differences between d^2 and hypot cannot change the answer.
  const std::size_t keep = std::min<std::size_t>(by_x_.size(), k + 16);
  std::vector<std::pair<double, std::uint32_t>> d2(by_x_.size());
  for (std::size_t i = 0; i < by_x_.size(); ++i) {
    const double dx = by_x_[i].pos.x - p.x;
    const double dy = by_x_[i].pos.y - p.y;
    d2[i] = {dx * dx + dy * dy, static_cast<std::uint32_t>(i)};
  }
  std::nth_element(d2.begin(), d2.begin() + static_cast<std::ptrdiff_t>(keep),
                   d2.end());
  std::vector<std::pair<double, RecordKey>> cand;
  for (std::size_t i = 0; i < keep; ++i) {
    const RecordKey& r = by_x_[d2[i].second];
    cand.emplace_back(geogrid::distance(r.pos, p), r);
  }
  return rank(std::move(cand), k);
}

std::vector<RecordKey> brute_range(std::span<const RecordKey> pop,
                                   const Rect& rect) {
  std::vector<RecordKey> out;
  for (const RecordKey& r : pop) {
    if (covers(rect, r.pos)) out.push_back(r);
  }
  std::sort(out.begin(), out.end(), by_user);
  return out;
}

std::vector<RecordKey> brute_nearest(std::span<const RecordKey> pop,
                                     const Point& p, std::uint32_t k) {
  std::vector<std::pair<double, RecordKey>> cand;
  for (const RecordKey& r : pop) {
    cand.emplace_back(geogrid::distance(r.pos, p), r);
  }
  return rank(std::move(cand), k);
}

std::string fixed6(double v) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof buf, "%.6f", v);
  return std::string(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

// ---- notifications --------------------------------------------------------

NotifyChecker::NotifyChecker(std::span<const SubSpec> subs,
                             std::span<const Report> reports,
                             std::span<const std::uint32_t> user_offsets,
                             std::span<const std::uint32_t> user_reports,
                             std::span<const Point> initial_pos)
    : sub_list_(subs),
      reports_(reports),
      user_offsets_(user_offsets),
      user_reports_(user_reports),
      initial_pos_(initial_pos),
      announced_(reports.size(), 0) {
  for (const SubSpec& s : subs) subs_.emplace(s.id, &s);
}

bool NotifyChecker::initial_member(const SubSpec& s,
                                   std::uint32_t user) const {
  return s.kind != SubSpec::Kind::kFriend && covers(s.area, initial_pos_[user]);
}

std::uint32_t NotifyChecker::feed(const NotifyGot& n) {
  auto sit = subs_.find(n.sub_id);
  PB_REQUIRE(sit != subs_.end(),
          "notify for unknown subscription " + std::to_string(n.sub_id));
  const SubSpec& sub = *sit->second;
  PB_REQUIRE(n.topic == sub.filter, "notify topic '" + n.topic +
                                     "' does not match filter '" +
                                     sub.filter + "'");

  // Payload: "<event> u<user> @(<x>, <y>)", coordinates at %.6f.
  const std::string& p = n.payload;
  const std::size_t sp = p.find(" u");
  const std::size_t at = p.find(" @(");
  const std::size_t comma = p.find(", ", at == std::string::npos ? 0 : at);
  PB_REQUIRE(sp != std::string::npos && at != std::string::npos &&
              comma != std::string::npos && !p.empty() && p.back() == ')',
          "malformed notify payload '" + p + "'");
  const std::string event = p.substr(0, sp);
  const std::string user_s = p.substr(sp + 2, at - sp - 2);
  const std::string xs = p.substr(at + 3, comma - at - 3);
  const std::string ys = p.substr(comma + 2, p.size() - comma - 3);
  char* end = nullptr;
  const unsigned long uid = std::strtoul(user_s.c_str(), &end, 10);
  PB_REQUIRE(end != nullptr && *end == '\0' && uid > 0 &&
              uid + 1 < user_offsets_.size(),
          "notify names an unknown user in '" + p + "'");
  const auto user = static_cast<std::uint32_t>(uid);

  PairState& st = pairs_.try_emplace(key(sub.id, user),
                                     PairState{initial_member(sub, user), -1})
                      .first->second;

  // The announced position must be one this user reported, later than the
  // last one announced to this subscription.
  std::int64_t found = -1;
  for (std::uint32_t i = user_offsets_[user]; i < user_offsets_[user + 1];
       ++i) {
    const std::uint32_t r = user_reports_[i];
    if (static_cast<std::int64_t>(r) <= st.last_report) continue;
    const Point& pos = reports_[r].pos;
    if (fixed6(pos.x) == xs && fixed6(pos.y) == ys) {
      found = r;
      break;
    }
  }
  PB_REQUIRE(found >= 0, "notify position in '" + p + "' for sub " +
                          std::to_string(sub.id) +
                          " is not a later report of that user");
  const Point pos = reports_[static_cast<std::size_t>(found)].pos;

  if (sub.kind == SubSpec::Kind::kFriend) {
    PB_REQUIRE(user == sub.tracked, "friend notify for an untracked user");
    PB_REQUIRE(event == "move", "friend notify '" + event +
                                 "' for a user resident at subscribe time");
  } else if (event == "enter") {
    PB_REQUIRE(!st.member && covers(sub.area, pos),
            "illegal enter for sub " + std::to_string(sub.id) + " user " +
                user_s);
    st.member = true;
  } else if (event == "leave") {
    PB_REQUIRE(st.member && !covers(sub.area, pos),
            "illegal leave for sub " + std::to_string(sub.id) + " user " +
                user_s);
    st.member = false;
  } else if (event == "move") {
    PB_REQUIRE(sub.kind == SubSpec::Kind::kRange && st.member &&
                covers(sub.area, pos),
            "illegal move for sub " + std::to_string(sub.id) + " user " +
                user_s);
  } else {
    throw CheckFailure("unknown notify event '" + event + "'");
  }
  st.last_report = found;
  seen_.emplace(key(sub.id, static_cast<std::uint32_t>(found)), event[0]);
  ++announced_[static_cast<std::size_t>(found)];
  return static_cast<std::uint32_t>(found);
}

void NotifyChecker::finish(std::span<const Point> final_pos,
                           std::span<const std::uint32_t> movers,
                           std::span<const std::uint8_t> isolated) const {
  auto announced = [&](std::uint64_t sub, std::uint32_t r) {
    auto it = seen_.find(key(sub, r));
    return it == seen_.end() ? '-' : it->second;
  };
  std::unordered_map<std::uint32_t, std::vector<const SubSpec*>> friends;
  std::vector<const SubSpec*> areas;
  for (const SubSpec& sub : sub_list_) {
    if (sub.kind == SubSpec::Kind::kFriend) {
      friends[sub.tracked].push_back(&sub);
    } else {
      areas.push_back(&sub);
    }
  }
  for (std::uint32_t u = 1; u + 1 < user_offsets_.size(); ++u) {
    for (std::uint32_t i = user_offsets_[u] + 1; i < user_offsets_[u + 1]; ++i) {
      const std::uint32_t r = user_reports_[i];
      if (!isolated[r]) continue;
      const Point prev = reports_[user_reports_[i - 1]].pos;
      const Point cur = reports_[r].pos;
      const auto f = friends.find(u);
      if (f != friends.end()) {
        for (const SubSpec* sub : f->second) {
          PB_REQUIRE(announced(sub->id, r) == 'm',
                  "friend sub " + std::to_string(sub->id) +
                      " missed the move of report " + std::to_string(r));
        }
      }
      // Every implied event announced, and nothing else for this report.
      std::uint32_t implied = f != friends.end()
                                  ? static_cast<std::uint32_t>(f->second.size())
                                  : 0;
      for (const SubSpec* sub : areas) {
        const bool was = covers(sub->area, prev);
        const bool is = covers(sub->area, cur);
        char want = '-';
        if (!was && is) want = 'e';
        if (was && !is) want = 'l';
        if (was && is && sub->kind == SubSpec::Kind::kRange) want = 'm';
        if (want == '-') continue;
        ++implied;
        PB_REQUIRE(announced(sub->id, r) == want,
                "sub " + std::to_string(sub->id) + " announced '" +
                    std::string(1, announced(sub->id, r)) + "' for report " +
                    std::to_string(r) + ", expected '" + std::string(1, want) +
                    "'");
      }
      PB_REQUIRE(announced_[r] == implied,
                 "report " + std::to_string(r) + " was announced " +
                     std::to_string(announced_[r]) + " times, " +
                     std::to_string(implied) + " implied");
    }
  }
  // Pairs by subscription, ordered by user, to merge with `movers`.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, const PairState*>>>
      by_sub;
  for (const auto& [k, st] : pairs_) {
    by_sub[k >> 32].emplace_back(static_cast<std::uint32_t>(k & 0xffffffffu),
                                 &st);
  }
  for (auto& [sub, lst] : by_sub) std::sort(lst.begin(), lst.end());
  for (const SubSpec& sub : sub_list_) {
    if (sub.kind == SubSpec::Kind::kFriend) {
      const std::uint32_t u = sub.tracked;
      if (final_pos[u] == initial_pos_[u]) continue;
      auto it = pairs_.find(key(sub.id, u));
      PB_REQUIRE(it != pairs_.end() &&
                  reports_[static_cast<std::size_t>(it->second.last_report)]
                          .pos == final_pos[u],
              "friend stream of sub " + std::to_string(sub.id) +
                  " does not end at the tracked user's final position");
      continue;
    }
    // Merge the sorted movers with this subscription's (sorted) pairs.
    const auto sit = by_sub.find(sub.id);
    std::size_t j = 0;
    for (const std::uint32_t u : movers) {
      const PairState* ps = nullptr;
      if (sit != by_sub.end()) {
        const auto& lst = sit->second;
        while (j < lst.size() && lst[j].first < u) ++j;
        if (j < lst.size() && lst[j].first == u) ps = lst[j].second;
      }
      const bool member = ps != nullptr ? ps->member : initial_member(sub, u);
      const bool inside = covers(sub.area, final_pos[u]);
      PB_REQUIRE(member == inside,
              "membership of user " + std::to_string(u) + " in sub " +
                  std::to_string(sub.id) +
                  " implied by the notify stream differs from its final "
                  "position");
      if (sub.kind == SubSpec::Kind::kRange && inside && ps != nullptr) {
        PB_REQUIRE(reports_[static_cast<std::size_t>(ps->last_report)].pos ==
                    final_pos[u],
                "range stream of sub " + std::to_string(sub.id) +
                    " misses the last move of user " + std::to_string(u));
      }
    }
  }
}

}  // namespace pb
