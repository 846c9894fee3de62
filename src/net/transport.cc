#include "net/transport.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>

#include "h2/constants.h"

namespace h2r::net {

std::string_view to_string(ExchangeOutcome o) noexcept {
  switch (o) {
    case ExchangeOutcome::kQuiescent:
      return "quiescent";
    case ExchangeOutcome::kRoundCap:
      return "round_cap";
    case ExchangeOutcome::kByteCap:
      return "byte_cap";
    case ExchangeOutcome::kDisconnected:
      return "disconnected";
  }
  return "unknown";
}

std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDisconnect:
      return "disconnect";
  }
  return "unknown";
}

double fault_probability(double loss_rate, double floor) noexcept {
  // A lossy path multiplies the chance that some segment of the (single)
  // TCP connection dies or degrades mid-exchange; 25x turns the corpus's
  // per-packet loss rates (up to ~2%) into per-connection fault odds that
  // separate lossy sites from clean ones without drowning the floor.
  return std::clamp(floor + loss_rate * 25.0, 0.0, 0.95);
}

std::string FaultPlan::describe() const {
  std::string out;
  if (kind == FaultKind::kNone) {
    out = "clean";
  } else {
    out = std::string(to_string(kind));
    out += dir == trace::Direction::kClientToServer ? " c2s@" : " s2c@";
    out += std::to_string(at_byte);
    if (kind == FaultKind::kStall) {
      out += " rounds=" + std::to_string(stall_rounds);
    }
  }
  if (frame_aligned) {
    out += " frame-aligned";
  } else {
    out += max_chunk == 0 ? " chunk=whole"
                          : " chunk<=" + std::to_string(max_chunk);
  }
  return out;
}

FaultPlan FaultPlan::generate(std::uint64_t seed, double fault_probability) {
  FaultPlan plan;
  plan.seed = seed;
  std::uint64_t sm = seed;
  const auto draw = [&sm] { return splitmix64(sm); };

  // Generated plans deliver frame-aligned: the receiver reacts to every
  // frame before seeing the next (the semantics rng-chunked delivery gave
  // us) without paying a receive() call per chunk — per-chunk dribble at
  // corpus scale is what made the faulted scan 40x slower than the clean
  // one. Sub-frame reassembly stays covered by the explicit max_chunk
  // plans in tests/transport_fault_test.cc. max_chunk is still drawn (and
  // ignored) so the fault kind/offset stream per seed is unchanged.
  plan.frame_aligned = true;
  const std::uint64_t bucket = draw() % 10;
  if (bucket == 0) {
    plan.max_chunk = 1;  // pure dribble
  } else if (bucket <= 3) {
    plan.max_chunk = static_cast<std::uint32_t>(2 + draw() % 15);
  } else if (bucket <= 7) {
    plan.max_chunk = static_cast<std::uint32_t>(17 + draw() % 240);
  } else {
    plan.max_chunk = static_cast<std::uint32_t>(257 + draw() % 1280);
  }

  const double roll = static_cast<double>(draw() >> 11) * 0x1.0p-53;
  if (roll >= fault_probability) return plan;

  switch (draw() % 4) {
    case 0:
      plan.kind = FaultKind::kTruncate;
      break;
    case 1:
      plan.kind = FaultKind::kCorrupt;
      break;
    case 2:
      plan.kind = FaultKind::kStall;
      break;
    default:
      plan.kind = FaultKind::kDisconnect;
      break;
  }
  plan.dir = draw() % 2 == 0 ? trace::Direction::kClientToServer
                             : trace::Direction::kServerToClient;
  // Small enough to routinely land inside the preface, a frame header, or
  // an HPACK block; large enough that some plans outlive short exchanges
  // (an armed fault that never fires is a legitimate outcome).
  plan.at_byte = draw() % 600;
  plan.stall_rounds = static_cast<int>(1 + draw() % 6);
  plan.xor_mask = static_cast<std::uint8_t>(1 + draw() % 255);
  return plan;
}

void ExchangeLedger::note(const ExchangeResult& result) noexcept {
  ++exchanges;
  if (result.fault != FaultKind::kNone) ++faults_injected;
  if (result.deadline_hit()) {
    ++deadline_hits;
    attempt_deadline = true;
  }
  if (result.outcome == ExchangeOutcome::kDisconnected ||
      result.fault == FaultKind::kDisconnect) {
    attempt_disconnect = true;
  }
  if (result.fault == FaultKind::kTruncate ||
      result.fault == FaultKind::kCorrupt) {
    attempt_truncated = true;
  }
}

// ------------------------------------------------------------------ driver

ExchangeDriver::State ExchangeDriver::pump() {
  if (state_ != State::kRunning) return state_;
  if (!started_) {
    started_ = true;
    if (t_.exchange_dead(result_)) {
      complete();
      return state_;
    }
  }
  while (rounds_ < limits_.max_rounds) {
    const auto out = t_.round_once(client_, server_, result_);
    if (out.terminal) {
      // round_once set the terminal outcome; the dying round still counts.
      if (out.progressed) t_.mark_round(rounds_);
      ++rounds_;
      complete();
      return state_;
    }
    if (!out.progressed) {
      if (out.parkable > 0) {
        // Nothing but stall countdowns ahead: sleep through them instead of
        // spinning the pump. The round cap still bounds the sleep.
        park_ = std::min(out.parkable, limits_.max_rounds - rounds_);
        state_ = State::kParked;
        return state_;
      }
      complete();  // quiescent
      return state_;
    }
    t_.mark_round(rounds_);
    ++rounds_;
    if (limits_.max_bytes != 0 &&
        result_.bytes_c2s + result_.bytes_s2c >= limits_.max_bytes) {
      result_.outcome = ExchangeOutcome::kByteCap;
      complete();
      return state_;
    }
  }
  complete();  // round cap
  return state_;
}

void ExchangeDriver::unpark() {
  if (state_ != State::kParked) return;
  const int k = park_;
  park_ = 0;
  // Parked rounds observably elapsed (the old pump spun through them
  // marking each); replay the marks so traces stay byte-identical. Without
  // a recorder this is O(1) however long the stall.
  if (t_.recorder_ != nullptr) {
    for (int i = 0; i < k; ++i) t_.mark_round(rounds_ + i);
  }
  rounds_ += k;
  t_.on_parked_rounds(k);
  if (t_.ledger_ != nullptr) t_.ledger_->note_park(k);
  state_ = State::kRunning;
}

void ExchangeDriver::complete() {
  state_ = State::kDone;
  result_.rounds = rounds_;
  if (result_.outcome == ExchangeOutcome::kQuiescent &&
      rounds_ >= limits_.max_rounds) {
    result_.outcome = ExchangeOutcome::kRoundCap;
  }
  t_.finish(result_);
}

ExchangeResult Transport::run_endpoints(Endpoint& client, Endpoint& server,
                                        const ExchangeLimits& limits) {
  ExchangeDriver driver(*this, client, server, limits);
  while (driver.pump() == ExchangeDriver::State::kParked) driver.unpark();
  return driver.result();
}

// ---------------------------------------------------------------- lockstep

Transport::RoundOutcome LockstepTransport::round_once(Endpoint& client,
                                                      Endpoint& server,
                                                      ExchangeResult& result) {
  RoundOutcome out;
  Bytes c2s = client.take_output();
  if (!c2s.empty()) server.receive(c2s);
  Bytes s2c = server.take_output();
  if (!s2c.empty()) client.receive(s2c);
  result.bytes_c2s += c2s.size();
  result.bytes_s2c += s2c.size();
  out.progressed = !c2s.empty() || !s2c.empty();
  // Both directions have been shipped; hand the drained buffers back so
  // the next round reuses their capacity instead of reallocating.
  client.recycle(std::move(c2s));
  server.recycle(std::move(s2c));
  return out;
}

// ------------------------------------------------------------- wire cursor

std::size_t WireCursor::scan(std::span<const std::uint8_t> s,
                             bool stop_at_boundary) {
  static constexpr std::string_view kCrlf2 = "\r\n\r\n";
  // One step of the "\r\n\r\n" matcher; a completed match (state 4) restarts
  // on the next '\r'. (The client preface contains the terminator mid-way,
  // so state 4 can persist inside kProbe.)
  const auto crlf_step = [](std::uint8_t state, std::uint8_t b) {
    if (state < 4 && b == static_cast<std::uint8_t>(kCrlf2[state])) {
      return static_cast<std::uint8_t>(state + 1);
    }
    return static_cast<std::uint8_t>(b == '\r' ? 1 : 0);
  };
  std::size_t i = 0;
  while (i < s.size()) {
    switch (phase_) {
      case Phase::kProbe: {
        const std::string_view literal =
            c2s_ ? h2::kClientPreface : std::string_view("HTTP/");
        const std::uint8_t b = s[i];
        // Track the text terminator in parallel: if the literal match dies
        // we are in HTTP/1.1 text and must not have lost sight of it.
        crlf_ = crlf_step(crlf_, b);
        if (b == static_cast<std::uint8_t>(literal[probe_pos_])) {
          if (!c2s_) header_[probe_pos_] = b;
          ++probe_pos_;
          ++i;
          if (probe_pos_ == literal.size()) {
            if (c2s_) {
              // Full client preface: boundary, then framing starts.
              phase_ = Phase::kHeader;
              header_have_ = 0;
              crlf_ = 0;
              if (stop_at_boundary) return i;
            } else {
              // "HTTP/": an upgrade response; scan to its blank line.
              phase_ = Phase::kText;
            }
          }
          break;
        }
        // Literal mismatch. c2s: HTTP/1.1 upgrade-request text (or a
        // corrupted preface headed for a protocol error — grouping is moot
        // there). s2c: this is framing after all; the probed octets were
        // the start of the first frame header.
        if (c2s_) {
          ++i;
          if (crlf_ == 4) {
            // Terminator already inside the probed prefix (corrupted
            // streams only): boundary now, expect a preface next.
            phase_ = Phase::kProbe;
            probe_pos_ = 0;
            crlf_ = 0;
            if (stop_at_boundary) return i;
          } else {
            phase_ = Phase::kText;
          }
        } else {
          header_have_ = probe_pos_;
          phase_ = Phase::kHeader;
          // Do not consume: reprocess this octet as a header octet.
        }
        break;
      }
      case Phase::kText: {
        crlf_ = crlf_step(crlf_, s[i]);
        ++i;
        if (crlf_ == 4) {
          // Blank line: the HTTP/1.1 text is complete. c2s continues with
          // the (possibly optimistic) h2 preface; s2c with frames.
          crlf_ = 0;
          if (c2s_) {
            phase_ = Phase::kProbe;
            probe_pos_ = 0;
          } else {
            phase_ = Phase::kHeader;
            header_have_ = 0;
          }
          if (stop_at_boundary) return i;
        }
        break;
      }
      case Phase::kHeader: {
        const std::uint8_t* header = s.data() + i;
        if (header_have_ == 0 && s.size() - i >= header_.size()) {
          // The whole header is in view: read its length field in place.
          i += header_.size();
        } else {
          header_[header_have_++] = s[i];
          ++i;
          if (header_have_ < header_.size()) break;
          header = header_.data();
          header_have_ = 0;
        }
        payload_left_ = (static_cast<std::uint32_t>(header[0]) << 16) |
                        (static_cast<std::uint32_t>(header[1]) << 8) |
                        static_cast<std::uint32_t>(header[2]);
        if (payload_left_ == 0) {
          // Zero-length frame: complete at its header's last octet.
          if (stop_at_boundary) return i;
        } else {
          phase_ = Phase::kPayload;
        }
        break;
      }
      case Phase::kPayload: {
        const std::size_t take = std::min<std::size_t>(
            payload_left_, s.size() - i);
        payload_left_ -= static_cast<std::uint32_t>(take);
        i += take;
        if (payload_left_ == 0) {
          phase_ = Phase::kHeader;
          if (stop_at_boundary) return i;
        }
        break;
      }
    }
  }
  return i;
}

// ------------------------------------------------------------------ faulty

FaultyTransport::FaultyTransport(FaultPlan plan, trace::Recorder* recorder,
                                 ExchangeLedger* ledger)
    : Transport(recorder, ledger),
      plan_(plan),
      chunk_rng_(plan.seed ^ 0x9E3779B97F4A7C15ull),
      fault_armed_(plan.kind != FaultKind::kNone) {}

FaultyTransport::~FaultyTransport() { release_buffers(); }

void FaultyTransport::reset(FaultPlan plan, trace::Recorder* recorder,
                            ExchangeLedger* ledger) {
  recorder_ = recorder;
  ledger_ = ledger;
  plan_ = plan;
  chunk_rng_ = Rng(plan.seed ^ 0x9E3779B97F4A7C15ull);
  c2s_.rewind(true);
  s2c_.rewind(false);
  fault_armed_ = plan.kind != FaultKind::kNone;
  fault_fired_ = false;
  disconnected_ = false;
}

void FaultyTransport::release_buffers() {
  // Only a hold that owns storage touches the pool, so destroying a
  // transport its lease already emptied is safe even during thread exit.
  for (DirState* d : {&c2s_, &s2c_}) {
    if (d->pending.capacity() != 0) {
      BufferPool::local().release(std::move(d->pending));
    }
    d->pending.clear();
    d->pos = 0;
  }
}

void FaultyTransport::hold(DirState& d, Bytes& fresh) {
  if (d.pos >= d.pending.size()) {
    // Nothing undelivered: the fresh buffer becomes the hold, and the old
    // (drained) hold goes back to the endpoint in its place.
    d.pending.swap(fresh);
    d.pos = 0;
    return;
  }
  // Undelivered octets remain (a stall is holding them): append behind.
  d.pending.insert(d.pending.end(), fresh.begin(), fresh.end());
}

const Status& FaultyTransport::truncated_status(std::uint64_t at) {
  static constexpr std::string_view kPrefix = "transport truncated at octet ";
  std::array<char, kPrefix.size() + 20> text;
  std::copy(kPrefix.begin(), kPrefix.end(), text.begin());
  const auto end =
      std::to_chars(text.data() + kPrefix.size(), text.data() + text.size(),
                    at)
          .ptr;
  truncated_.assign(StatusCode::kUnavailable,
                    std::string_view(text.data(), end - text.data()));
  return truncated_;
}

void FaultyTransport::record_fault(trace::Direction dir, std::uint64_t at,
                                   std::uint32_t detail_b) {
  if (recorder_ == nullptr) return;
  recorder_->record({.dir = dir,
                     .kind = trace::EventKind::kFault,
                     .detail_a = static_cast<std::uint32_t>(at),
                     .detail_b = detail_b,
                     .note = to_string(plan_.kind)});
}

bool FaultyTransport::step(DirState& d, trace::Direction dir, Endpoint& dst,
                          Endpoint& client, Endpoint& server,
                          ExchangeResult& result) {
  if (d.cut) {
    // Truncated direction: anything still held (or newly produced) is lost.
    d.pending.clear();
    d.pos = 0;
    return false;
  }
  if (d.stall_left > 0) {
    --d.stall_left;  // delivery is held; time still advances
    return true;
  }

  // The cursor tracks every octet actually delivered — including fault
  // prefixes and post-corruption bytes — so its view of frame boundaries is
  // exactly the receiver's. Measuring a frame-aligned span already moves it
  // past the span; a delivery that differs from the measured span (a fault
  // prefix, a corrupted octet) restores it and scans what actually arrives.
  bool rescan = false;
  const auto deliver = [&](std::size_t n) {
    const std::span<const std::uint8_t> chunk(d.pending.data() + d.pos, n);
    if (rescan) d.cursor.advance(chunk);
    dst.receive(chunk);
    d.pos += n;
    d.offset += n;
  };

  bool moved = false;
  while (d.pos < d.pending.size()) {
    const std::size_t avail = d.pending.size() - d.pos;
    const WireCursor measured_from = d.cursor;
    rescan = false;
    const std::size_t n =
        plan_.frame_aligned
            ? d.cursor.next_span(std::span<const std::uint8_t>(
                  d.pending.data() + d.pos, avail))
        : plan_.max_chunk == 0
            ? avail
            : static_cast<std::size_t>(std::min<std::uint64_t>(
                  avail, 1 + chunk_rng_.next_below(plan_.max_chunk)));

    if (fault_armed_ && dir == plan_.dir && plan_.at_byte < d.offset + n) {
      const std::size_t prefix =
          plan_.at_byte > d.offset
              ? static_cast<std::size_t>(plan_.at_byte - d.offset)
              : 0;
      if (plan_.frame_aligned) {
        d.cursor = measured_from;
        rescan = true;
      }
      fault_armed_ = false;
      fault_fired_ = true;
      result.fault = plan_.kind;
      switch (plan_.kind) {
        case FaultKind::kTruncate:
          // Everything up to the cut arrives; the tail never does. The
          // receiver learns its read side died (half-close + RST).
          if (prefix > 0) deliver(prefix);
          record_fault(dir, plan_.at_byte, 0);
          d.cut = true;
          d.pending.clear();
          d.pos = 0;
          dst.on_transport_close(truncated_status(plan_.at_byte));
          return true;
        case FaultKind::kStall:
          if (prefix > 0) deliver(prefix);
          record_fault(dir, plan_.at_byte,
                       static_cast<std::uint32_t>(plan_.stall_rounds));
          d.stall_left = plan_.stall_rounds;
          return true;
        case FaultKind::kDisconnect:
          if (prefix > 0) deliver(prefix);
          record_fault(dir, plan_.at_byte, 0);
          disconnected_ = true;
          c2s_.cut = s2c_.cut = true;
          c2s_.pending.clear();
          c2s_.pos = 0;
          s2c_.pending.clear();
          s2c_.pos = 0;
          client.on_transport_close(
              UnavailableError("transport disconnected mid-exchange"));
          server.on_transport_close(
              UnavailableError("transport disconnected mid-exchange"));
          return true;
        case FaultKind::kCorrupt: {
          const std::uint8_t mask = plan_.xor_mask != 0 ? plan_.xor_mask : 1;
          d.pending[d.pos + prefix] ^= mask;
          record_fault(dir, plan_.at_byte, mask);
          break;  // the (now corrupted) chunk is delivered normally below
        }
        case FaultKind::kNone:
          break;
      }
    }

    deliver(n);
    moved = true;
  }
  d.pending.clear();
  d.pos = 0;
  return moved;
}

bool FaultyTransport::exchange_dead(ExchangeResult& result) {
  if (!disconnected_) return false;
  // The connection died in an earlier run() on this transport; nothing
  // can be exchanged any more.
  result.outcome = ExchangeOutcome::kDisconnected;
  return true;
}

void FaultyTransport::on_parked_rounds(int rounds) {
  c2s_.stall_left -= std::min(c2s_.stall_left, rounds);
  s2c_.stall_left -= std::min(s2c_.stall_left, rounds);
}

Transport::RoundOutcome FaultyTransport::round_once(Endpoint& client,
                                                    Endpoint& server,
                                                    ExchangeResult& result) {
  RoundOutcome out;
  // Pull fresh output into the per-direction holds, then let the plan
  // decide how much of each hold actually arrives this round.
  Bytes c2s = client.take_output();
  const std::size_t in_c2s = c2s.size();
  if (!c2s.empty() && !c2s_.cut) hold(c2s_, c2s);
  client.recycle(std::move(c2s));
  Bytes s2c = server.take_output();
  const std::size_t in_s2c = s2c.size();
  if (!s2c.empty() && !s2c_.cut) hold(s2c_, s2c);
  server.recycle(std::move(s2c));
  result.bytes_c2s += in_c2s;
  result.bytes_s2c += in_s2c;

  // A round with no intake where neither direction can move octets — only a
  // stall countdown would tick — is a dead round, and every round until the
  // stall expires is equally dead (the endpoints are passive between
  // deliveries). Report the whole stretch as parkable instead of burning a
  // pump round per tick. At most one direction ever stalls: plans carry at
  // most one fault.
  if (in_c2s == 0 && in_s2c == 0) {
    const auto idle = [](const DirState& d) {
      return d.stall_left > 0 || d.cut || d.pos >= d.pending.size();
    };
    const int ticking = std::max(c2s_.stall_left, s2c_.stall_left);
    if (ticking > 0 && idle(c2s_) && idle(s2c_)) {
      out.parkable = ticking;
      return out;
    }
  }

  bool moved = step(c2s_, trace::Direction::kClientToServer, server, client,
                    server, result);
  if (!disconnected_) {
    moved |= step(s2c_, trace::Direction::kServerToClient, client, client,
                  server, result);
  }

  out.progressed = in_c2s > 0 || in_s2c > 0 || moved;
  if (disconnected_) {
    result.outcome = ExchangeOutcome::kDisconnected;
    out.terminal = true;
  }
  return out;
}

}  // namespace h2r::net
