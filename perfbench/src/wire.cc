#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include "net/framing.h"

namespace pb {

namespace net = geogrid::net;

namespace {

constexpr double kSpin = 20e-6;  ///< seconds
constexpr std::uint64_t kSpinOutstanding = 64;

/// The reply type and id a request must get back.
void check_reply_matches(const OpRec& op, const net::Message& m,
                         std::size_t conn) {
  const auto where = [conn] { return " on connection " + std::to_string(conn); };
  switch (op.kind) {
    case OpKind::kUpdate: {
      const auto* ack = std::get_if<net::LocationUpdateAck>(&m);
      PB_REQUIRE(ack != nullptr, "expected an update ack" + where());
      PB_REQUIRE(ack->user.value == op.user && ack->seq == op.seq,
              "ack names user " + std::to_string(ack->user.value) + " seq " +
                  std::to_string(ack->seq) + ", expected user " +
                  std::to_string(op.user) + " seq " + std::to_string(op.seq));
      return;
    }
    case OpKind::kLocate: {
      const auto* rep = std::get_if<net::LocateReply>(&m);
      PB_REQUIRE(rep != nullptr && rep->request_id == op.arg + std::uint64_t{1},
              "expected the locate reply for request " +
                  std::to_string(op.arg + 1) + where());
      return;
    }
    case OpKind::kRange:
    case OpKind::kNearest: {
      const auto* rep = std::get_if<net::QueryResult>(&m);
      PB_REQUIRE(rep != nullptr && rep->query_id == op.arg + std::uint64_t{1},
              "expected the query result for query " +
                  std::to_string(op.arg + 1) + where());
      return;
    }
    case OpKind::kSubscribe:
      PB_REQUIRE(std::holds_alternative<net::SubscribeAck>(m),
              "expected a subscribe ack" + where());
      return;
  }
}

}  // namespace

struct Wire::Conn {
  int fd = -1;
  std::size_t index = 0;
  net::FrameDecoder decoder;
  Feed* feed = nullptr;
  bool exhausted = false;
  std::vector<std::byte> buf;  ///< encoded frames not yet written
  std::size_t wcur = 0;        ///< bytes of buf written to the socket
  std::size_t rel = 0;         ///< bytes of buf released for writing
  std::deque<OpRec> q;         ///< requests [answered, encoded)
  std::uint64_t answered = 0, released = 0, encoded = 0;
  bool want_write = false;
};

Wire::Wire(std::uint16_t port, std::size_t conns) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timerfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  PB_REQUIRE(epfd_ >= 0 && timerfd_ >= 0, "epoll/timerfd setup failed");
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = ~std::uint64_t{0};
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, timerfd_, &tev);
  for (std::size_t i = 0; i < conns; ++i) {
    Conn* c = new Conn;
    conns_.push_back(c);
    c->index = i;
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    PB_REQUIRE(c->fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    PB_REQUIRE(::connect(c->fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0,
            std::string("connect() failed: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev);
  }
}

Wire::~Wire() {
  for (Conn* c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    delete c;
  }
  if (timerfd_ >= 0) ::close(timerfd_);
  if (epfd_ >= 0) ::close(epfd_);
}

PhaseResult Wire::run(const std::vector<Feed*>& feeds, double seconds,
                      const ReplyFn& on_reply, double* t0_out) {
  PhaseResult out;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = *conns_[i];
    c.feed = i < feeds.size() ? feeds[i] : nullptr;
    c.exhausted = false;
    c.buf.clear();
    c.q.clear();
    c.wcur = c.rel = 0;
    c.answered = c.released = c.encoded = 0;
  }
  const double t0 = now_s();
  out.t0 = t0;
  if (t0_out != nullptr) *t0_out = t0;
  const double t_stop = seconds > 0.0 ? t0 + seconds
                                      : std::numeric_limits<double>::infinity();
  double last_progress = t0;
  std::vector<std::byte> rbuf(256 * 1024);
  epoll_event events[16];

  for (;;) {
    const double now = now_s();
    bool finished = true;
    bool closed_active = false;
    std::uint64_t open_outstanding = 0;
    double next_due = std::numeric_limits<double>::infinity();

    for (Conn* cp : conns_) {
      Conn& c = *cp;
      if (c.feed == nullptr) continue;
      Feed& feed = *c.feed;
      closed_active = closed_active || feed.closed_loop();
      const bool stopped = feed.closed_loop() && now >= t_stop;
      // A stopped closed-loop feed still completes its round.  Feeds fill
      // whole rounds, so they are encoded already.
      const std::uint64_t round_end = (c.released + kRound - 1) / kRound * kRound;

      // Keep a few windows encoded ahead of the sender.
      const std::uint64_t ahead = 2 * feed.window() + kRound;
      while (!c.exhausted && !stopped && c.encoded - c.released < ahead) {
        const std::size_t n = feed.fill(kRound, c.buf, c.q);
        if (n == 0) c.exhausted = true;
        c.encoded += n;
      }

      // Release what the window or the schedule allows.
      const std::uint64_t first = c.released;
      if (feed.closed_loop()) {
        const std::uint64_t outstanding = c.released - c.answered;
        const std::uint64_t free_slots = feed.window() - outstanding;
        const std::uint64_t batch =
            std::max<std::uint64_t>(1, feed.window() / 16);
        if (stopped || free_slots >= batch) {
          c.released = std::min(stopped ? round_end : c.encoded,
                                c.released + free_slots);
        }
      } else {
        while (c.released < c.encoded) {
          const double due = t0 + c.q[c.released - c.answered].due;
          if (due > now) {
            next_due = std::min(next_due, due);
            break;
          }
          out.lag_s.push_back(now - due);
          ++c.released;
        }
      }
      for (std::uint64_t i = first; i < c.released; ++i) {
        OpRec& op = c.q[i - c.answered];
        op.sent = now;
        c.rel += op.len;
      }
      if (c.released > first) {
        out.log.push_back({static_cast<std::uint32_t>(c.index),
                           static_cast<std::uint32_t>(c.released - first)});
        out.sent += c.released - first;
      }

      while (c.wcur < c.rel) {
        const ssize_t w = ::send(c.fd, c.buf.data() + c.wcur, c.rel - c.wcur,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          c.wcur += static_cast<std::size_t>(w);
          continue;
        }
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw CheckFailure("send() failed on connection " +
                           std::to_string(c.index));
      }
      if (c.wcur >= (1u << 20)) {  // drop the written prefix now and then
        c.buf.erase(c.buf.begin(),
                    c.buf.begin() + static_cast<std::ptrdiff_t>(c.wcur));
        c.rel -= c.wcur;
        c.wcur = 0;
      }
      const bool want_write = c.wcur < c.rel;
      if (want_write != c.want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
        ev.data.u64 = c.index;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
        c.want_write = want_write;
      }
      if (!feed.closed_loop()) open_outstanding += c.released - c.answered;
      const bool sending_done =
          stopped ? c.released == round_end
                  : c.exhausted && c.released == c.encoded;
      if (!sending_done || c.answered < c.released || c.wcur < c.rel) {
        finished = false;
      }
    }
    if (finished) break;
    PB_REQUIRE(now - last_progress < 60.0, "server made no progress for 60 s");

    // An open-loop request due within kSpin is released by polling rather
    // than sleeping, so timer wake-up jitter does not add to its latency.
    // When every feed is open loop (the server is below saturation) and
    // only a few requests are outstanding (no burst is being served, so the
    // server has cores to spare), replies are awaited by polling too, so
    // the generator's own wake-up latency stays out of the measured latency.
    const bool spin = next_due - now < kSpin ||
                      (!closed_active && open_outstanding > 0 &&
                       open_outstanding <= kSpinOutstanding);
    if (!spin) {
      // Sleep until I/O, shortly before the next open-loop due time, or
      // the closed-loop stop.
      const double wake = now < t_stop ? std::min(next_due - kSpin, t_stop)
                                       : next_due - kSpin;
      itimerspec its{};
      if (wake < std::numeric_limits<double>::infinity()) {
        const double at = std::max(wake, now);
        its.it_value.tv_sec = static_cast<time_t>(at);
        its.it_value.tv_nsec = static_cast<long>((at - std::floor(at)) * 1e9);
        if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
          its.it_value.tv_nsec = 1;
        }
      }
      ::timerfd_settime(timerfd_, TFD_TIMER_ABSTIME, &its, nullptr);
    }
    const int ready = ::epoll_wait(epfd_, events, 16, spin ? 0 : 1000);
    if (ready < 0 && errno != EINTR) throw CheckFailure("epoll_wait failed");
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == ~std::uint64_t{0}) {
        std::uint64_t expirations;
        [[maybe_unused]] ssize_t r =
            ::read(timerfd_, &expirations, sizeof expirations);
        continue;
      }
      Conn& c = *conns_[events[e].data.u64];
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, rbuf.data(), rbuf.size(), MSG_DONTWAIT);
        if (n > 0) {
          const double at = now_s();
          last_progress = at;
          out.t_last = at;
          c.decoder.feed(rbuf.data(), static_cast<std::size_t>(n));
          for (;;) {
            const std::size_t before = c.decoder.buffered();
            net::FrameDecoder::Result r = c.decoder.next();
            if (r.status == net::FrameDecoder::Status::kNeedMore) break;
            PB_REQUIRE(r.status == net::FrameDecoder::Status::kFrame,
                    "malformed stream from the server: " + r.error);
            net::Message& m = *r.message;
            if (auto* ntf = std::get_if<net::Notify>(&m)) {
              notifies_.push_back(NotifyGot{ntf->sub_id, std::move(ntf->topic),
                                            std::move(ntf->payload), at});
              continue;
            }
            PB_REQUIRE(c.feed != nullptr && c.answered < c.released,
                    "reply without an outstanding request on connection " +
                        std::to_string(c.index));
            const OpRec& op = c.q.front();
            check_reply_matches(op, m, c.index);
            on_reply(c.index, op, at, m, before - c.decoder.buffered());
            c.q.pop_front();
            ++c.answered;
          }
          if (static_cast<std::size_t>(n) < rbuf.size()) break;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw CheckFailure("server closed connection " +
                           std::to_string(c.index));
      }
    }
  }
  for (Conn* c : conns_) {
    c->feed = nullptr;
    c->q.clear();
    c->buf.clear();
  }
  return out;
}

}  // namespace pb
