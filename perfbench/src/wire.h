// The load generator: one thread drives every connection through epoll,
// sending encoded frames and matching each reply to its request.
//
// A closed-loop feed keeps at most `window` requests outstanding and, once
// the phase's time is up, sends only what completes its current round of
// kRound requests; an open-loop feed sends each
// request when it falls due (a timerfd wakes the loop) and always sends
// its whole schedule.  Replies arrive in request order per connection (the
// server's ordering guarantee), so each is matched to the oldest
// outstanding request of its connection, checked for type and id here and
// handed to the phase's handler, which keeps what the content checks need
// after the phase; Notify pushes are set aside with their arrival time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model.h"
#include "net/messages.h"
#include "plan.h"

namespace pb {

/// `count` requests of a connection released together.  The traced replay
/// feeds frames in this order.
struct SendChunk {
  std::uint32_t conn = 0;
  std::uint32_t count = 0;
};

struct PhaseResult {
  double t0 = 0.0;            ///< phase start; open-loop dues count from it
  double t_last = 0.0;        ///< last frame received in the phase
  std::uint64_t sent = 0;     ///< requests released
  std::vector<double> lag_s;  ///< open loop: release time minus due time
  std::vector<SendChunk> log;
};

/// Called once per reply: connection, the request, arrival time, the
/// decoded reply and its framed size.
using ReplyFn = std::function<void(std::size_t, const OpRec&, double,
                                   const geogrid::net::Message&, std::size_t)>;

class Wire {
 public:
  Wire(std::uint16_t port, std::size_t conns);
  ~Wire();
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Runs one phase: `feeds[c]` on connection c (null = idle).  With
  /// `seconds` > 0 closed-loop feeds stop sending after that long.
  /// `*t0` is set to the phase start before the first request goes out.
  PhaseResult run(const std::vector<Feed*>& feeds, double seconds,
                  const ReplyFn& on_reply, double* t0 = nullptr);

  /// Every Notify received so far, in arrival order.
  std::vector<NotifyGot>& notifies() { return notifies_; }

 private:
  struct Conn;
  std::vector<Conn*> conns_;
  int epfd_ = -1;
  int timerfd_ = -1;
  std::vector<NotifyGot> notifies_;
};

}  // namespace pb
