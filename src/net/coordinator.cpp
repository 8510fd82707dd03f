#include "net/coordinator.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace colex::net {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + ::strerror(errno);
}

/// One node's control connection as the coordinator sees it.
struct Conn {
  Fd fd;
  CtlParser parser;
  std::int64_t index = -1;  ///< node index, once the JOIN arrives
  std::uint16_t data_port = 0;
  bool ready = false;
  // Latest REPORT.
  bool have_report = false;
  std::uint64_t state = kStateIdle;
  std::uint64_t sent = 0;
  std::uint64_t consumed = 0;
  // Ack for the probe round in flight.
  bool have_ack = false;
  std::uint64_t ack_state = kStateIdle;
  std::uint64_t ack_sent = 0;
  std::uint64_t ack_consumed = 0;
  bool have_result = false;
  DecodedResult result;
  bool eof = false;
  std::string node_error;  ///< from an ERR frame
};

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options) {
  listener_ = listen_on(options.port, &port_, &init_error_);
  if (!listener_.valid() && init_error_.empty()) {
    init_error_ = "coordinator: listen failed";
  }
}

CoordinatorResult Coordinator::run() {
  CoordinatorResult res;
  const std::uint32_t n = options_.ring_size;
  if (!ok()) {
    res.error = init_error_;
    return res;
  }
  if (n == 0) {
    res.error = "coordinator: ring_size is zero";
    return res;
  }
  const util::Deadline deadline = util::Deadline::in_ms(options_.timeout_ms);
  obs::FlightRing* flight = options_.flight;
  std::string err;
  set_nonblocking(listener_.get(), &err);

  std::vector<Conn> conns;  // accept order
  std::vector<std::int64_t> by_index(n, -1);  // node index -> conns slot

  auto conn_name = [&](std::size_t c) {
    return conns[c].index >= 0 ? "node " + std::to_string(conns[c].index)
                               : "conn " + std::to_string(c);
  };

  // Every abort carries a per-node post-mortem (the run's stall dump) and
  // broadcasts a best-effort STOP so forked node processes exit on their
  // own instead of burning their whole watchdog budget.
  auto post_mortem = [&](const std::string& cause) {
    std::string s = "coordinator: " + cause + "\n";
    for (std::uint32_t v = 0; v < n; ++v) {
      s += "  node " + std::to_string(v) + ": ";
      if (by_index[v] < 0) {
        s += "never joined\n";
        continue;
      }
      const Conn& c = conns[static_cast<std::size_t>(by_index[v])];
      if (c.have_report) {
        s += std::string("state=") + (c.state == kStateDone ? "done" : "idle") +
             " sent=" + std::to_string(c.sent) +
             " consumed=" + std::to_string(c.consumed);
      } else {
        s += "no report";
      }
      if (c.eof) s += " [EOF]";
      if (!c.node_error.empty()) s += " err: " + c.node_error;
      s += "\n";
    }
    return s;
  };

  auto broadcast = [&](const std::vector<unsigned char>& frame,
                       std::string* berr) {
    for (Conn& c : conns) {
      if (!c.fd.valid() || c.eof) continue;
      if (!util::send_all(c.fd.get(), frame.data(), frame.size(), deadline,
                          berr)) {
        return false;
      }
    }
    return true;
  };

  auto abort_run = [&](const std::string& cause) {
    res.error = post_mortem(cause);
    if (flight != nullptr) flight->record("abort");
    std::string ignored;
    broadcast(encode_ctl(Ctl::stop, {}), &ignored);
    return res;
  };

  // One poll pass: accepts pending connections (while `accepting`) and
  // drains every readable control connection through its parser into
  // `msgs` tagged with the conns slot. EOFs are flagged, not fatal here —
  // each phase decides what an EOF means.
  auto pump = [&](bool accepting,
                  std::vector<std::pair<std::size_t, CtlMsg>>* msgs,
                  std::string* perr) {
    std::vector<pollfd> pfds;
    std::vector<std::ptrdiff_t> who;
    if (accepting && listener_.valid()) {
      pfds.push_back(pollfd{listener_.get(), POLLIN, 0});
      who.push_back(-1);
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].fd.valid() && !conns[c].eof) {
        pfds.push_back(pollfd{conns[c].fd.get(), POLLIN, 0});
        who.push_back(static_cast<std::ptrdiff_t>(c));
      }
    }
    if (pfds.empty()) {
      ::poll(nullptr, 0, deadline.remaining_ms(10));
      return true;
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          deadline.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      *perr = errno_string("poll(coordinator)");
      return false;
    }
    if (rc <= 0) return true;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (who[i] < 0) {
        for (;;) {
          const int fd = ::accept(listener_.get(), nullptr, nullptr);
          if (fd < 0) break;  // EAGAIN and friends: drained
          Conn c;
          c.fd = Fd(fd);
          set_nonblocking(fd, perr);
          set_nodelay(fd);
          conns.push_back(std::move(c));
        }
        continue;
      }
      Conn& c = conns[static_cast<std::size_t>(who[i])];
      unsigned char buf[512];
      for (;;) {
        const ssize_t r = ::read(c.fd.get(), buf, sizeof(buf));
        if (r > 0) {
          std::vector<CtlMsg> out;
          if (!c.parser.feed(buf, static_cast<std::size_t>(r), out)) {
            *perr = conn_name(static_cast<std::size_t>(who[i])) + ": " +
                    c.parser.error();
            return false;
          }
          for (CtlMsg& m : out) {
            msgs->emplace_back(static_cast<std::size_t>(who[i]),
                               std::move(m));
          }
          continue;
        }
        if (r == 0) {
          c.eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        *perr = errno_string("read(node conn)");
        return false;
      }
    }
    return true;
  };

  // --- Formation: JOINs --------------------------------------------------
  std::uint32_t joined = 0;
  while (joined < n) {
    if (deadline.expired()) return abort_run("deadline waiting for JOINs");
    std::vector<std::pair<std::size_t, CtlMsg>> msgs;
    if (!pump(true, &msgs, &err)) return abort_run(err);
    for (auto& [ci, m] : msgs) {
      if (m.type == Ctl::err) {
        conns[ci].node_error = m.text;
        return abort_run(conn_name(ci) + " failed during formation: " +
                         m.text);
      }
      if (m.type != Ctl::join) {
        return abort_run(conn_name(ci) + ": expected JOIN, got frame type " +
                         std::to_string(static_cast<int>(m.type)));
      }
      const std::uint64_t idx = m.words[0];
      if (idx >= n || m.words[1] > 0xffff) {
        return abort_run("JOIN with invalid index/port from " +
                         conn_name(ci));
      }
      if (by_index[static_cast<std::size_t>(idx)] >= 0) {
        return abort_run("duplicate JOIN for node " + std::to_string(idx));
      }
      conns[ci].index = static_cast<std::int64_t>(idx);
      conns[ci].data_port = static_cast<std::uint16_t>(m.words[1]);
      by_index[static_cast<std::size_t>(idx)] =
          static_cast<std::int64_t>(ci);
      ++joined;
      if (flight != nullptr) flight->record("join", idx, m.words[1]);
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].eof) {
        return abort_run(conn_name(c) + " disconnected during formation");
      }
    }
  }
  listener_.reset();  // all nodes are in; no further connections expected

  // --- PEERS -> READY -> GO ---------------------------------------------
  for (std::uint32_t v = 0; v < n; ++v) {
    Conn& c = conns[static_cast<std::size_t>(by_index[v])];
    const Conn& succ =
        conns[static_cast<std::size_t>(by_index[(v + 1) % n])];
    const std::vector<unsigned char> frame =
        encode_ctl(Ctl::peers, {n, succ.data_port});
    if (!util::send_all(c.fd.get(), frame.data(), frame.size(), deadline,
                        &err)) {
      return abort_run("PEERS to node " + std::to_string(v) + ": " + err);
    }
  }
  std::uint32_t ready = 0;
  while (ready < n) {
    if (deadline.expired()) return abort_run("deadline waiting for READYs");
    std::vector<std::pair<std::size_t, CtlMsg>> msgs;
    if (!pump(false, &msgs, &err)) return abort_run(err);
    for (auto& [ci, m] : msgs) {
      if (m.type == Ctl::err) {
        conns[ci].node_error = m.text;
        return abort_run(conn_name(ci) + " failed forming ring edges: " +
                         m.text);
      }
      if (m.type != Ctl::ready || conns[ci].ready) {
        return abort_run(conn_name(ci) + ": expected one READY");
      }
      conns[ci].ready = true;
      ++ready;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].eof) {
        return abort_run(conn_name(c) + " disconnected before READY");
      }
    }
  }
  if (!broadcast(encode_ctl(Ctl::go, {}), &err)) {
    return abort_run("GO broadcast: " + err);
  }
  if (flight != nullptr) flight->record("go", n);

  // --- Election + quiescence detection ----------------------------------
  bool probing = false;
  bool have_prev = false;
  std::uint64_t round = 0;
  std::uint64_t prev_sent = 0;
  std::uint64_t prev_consumed = 0;

  auto tentative = [&]() {
    std::uint64_t sent_sum = 0;
    std::uint64_t consumed_sum = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      const Conn& c = conns[static_cast<std::size_t>(by_index[v])];
      if (!c.have_report) return false;
      if (c.state != kStateIdle && c.state != kStateDone) return false;
      sent_sum += c.sent;
      consumed_sum += c.consumed;
    }
    return sent_sum == consumed_sum;
  };

  auto start_round = [&](std::string* serr) {
    ++round;
    ++res.probe_rounds;
    probing = true;
    for (Conn& c : conns) c.have_ack = false;
    if (flight != nullptr) flight->record("probe", round);
    return broadcast(encode_ctl(Ctl::probe, {round}), serr);
  };

  bool quiescent = false;
  while (!quiescent) {
    if (deadline.expired()) {
      return abort_run("watchdog expired before quiescence (after " +
                       std::to_string(res.probe_rounds) + " probe rounds)");
    }
    if (!probing && tentative()) {
      if (!start_round(&err)) return abort_run("PROBE broadcast: " + err);
    }
    std::vector<std::pair<std::size_t, CtlMsg>> msgs;
    if (!pump(false, &msgs, &err)) return abort_run(err);
    for (auto& [ci, m] : msgs) {
      Conn& c = conns[ci];
      switch (m.type) {
        case Ctl::report:
          c.have_report = true;
          c.state = m.words[0];
          c.sent = m.words[1];
          c.consumed = m.words[2];
          ++res.reports;
          break;
        case Ctl::probe_ack:
          // Acks for superseded rounds can arrive late; only the round in
          // flight counts.
          if (probing && m.words[0] == round) {
            c.have_ack = true;
            c.ack_state = m.words[1];
            c.ack_sent = m.words[2];
            c.ack_consumed = m.words[3];
          }
          break;
        case Ctl::err:
          c.node_error = m.text;
          return abort_run(conn_name(ci) + " failed: " + m.text);
        default:
          return abort_run(conn_name(ci) +
                           ": unexpected frame type " +
                           std::to_string(static_cast<int>(m.type)) +
                           " during election");
      }
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].eof) {
        return abort_run(conn_name(c) + " disconnected mid-election");
      }
    }
    if (probing) {
      std::uint32_t acks = 0;
      std::uint64_t sent_sum = 0;
      std::uint64_t consumed_sum = 0;
      bool all_idle = true;
      for (const Conn& c : conns) {
        if (!c.have_ack) continue;
        ++acks;
        if (c.ack_state != kStateIdle && c.ack_state != kStateDone) {
          all_idle = false;
        }
        sent_sum += c.ack_sent;
        consumed_sum += c.ack_consumed;
      }
      if (acks == n) {
        const bool stable = all_idle && sent_sum == consumed_sum;
        if (stable && have_prev && sent_sum == prev_sent &&
            consumed_sum == prev_consumed) {
          quiescent = true;  // two identical consecutive rounds: certain
          res.total_sent = sent_sum;
          res.total_consumed = consumed_sum;
        } else if (stable) {
          have_prev = true;
          prev_sent = sent_sum;
          prev_consumed = consumed_sum;
          if (!start_round(&err)) {
            return abort_run("PROBE broadcast: " + err);
          }
        } else {
          probing = false;  // counters moved: wait for fresh reports
          have_prev = false;
        }
      }
    }
  }
  if (flight != nullptr) {
    flight->record("quiescent", res.total_sent, res.probe_rounds);
  }

  // --- STOP -> RESULTs ---------------------------------------------------
  if (!broadcast(encode_ctl(Ctl::stop, {}), &err)) {
    return abort_run("STOP broadcast: " + err);
  }
  std::uint32_t results = 0;
  while (results < n) {
    if (deadline.expired()) return abort_run("deadline collecting RESULTs");
    std::vector<std::pair<std::size_t, CtlMsg>> msgs;
    if (!pump(false, &msgs, &err)) return abort_run(err);
    for (auto& [ci, m] : msgs) {
      Conn& c = conns[ci];
      switch (m.type) {
        case Ctl::result:
          if (c.have_result) {
            return abort_run(conn_name(ci) + ": duplicate RESULT");
          }
          c.have_result = true;
          c.result = decode_result(m.words);
          ++results;
          break;
        case Ctl::report:
        case Ctl::probe_ack:
          break;  // raced the STOP; harmless
        case Ctl::err:
          c.node_error = m.text;
          return abort_run(conn_name(ci) + " failed at teardown: " + m.text);
        default:
          return abort_run(conn_name(ci) + ": unexpected frame type " +
                           std::to_string(static_cast<int>(m.type)) +
                           " at teardown");
      }
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].eof && !conns[c].have_result) {
        return abort_run(conn_name(c) + " disconnected before its RESULT");
      }
    }
  }

  res.results.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const Conn& c = conns[static_cast<std::size_t>(by_index[v])];
    res.results[static_cast<std::size_t>(v)] = c.result;
  }
  res.completed = true;
  if (flight != nullptr) flight->record("complete", res.total_sent);
  return res;
}

}  // namespace colex::net
