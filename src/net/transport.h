// The transport seam: who moves bytes between two HTTP/2 endpoints, and how
// badly.
//
// Every exchange in the reproduction used to run over one hard-coded
// lossless lockstep pump (core::run_exchange). That models the paper's
// testbed, but none of the adversarial delivery scenarios a real scanner
// hits — truncated frames, dribbled bytes, corrupted octets, delivery
// stalls, mid-exchange disconnects (the §VI "lossy environment" caveat).
// net::Transport makes delivery a first-class, injectable policy:
//
//   * LockstepTransport reproduces the historical pump bit-for-bit
//     (byte stream, round marks, buffer recycling).
//   * FaultyTransport executes a seeded FaultPlan: per-direction
//     re-segmentation into arbitrary chunk sizes (down to 1-byte dribble),
//     truncation mid-frame-header or mid-payload, single-octet corruption,
//     delivery stalls for N rounds, and hard mid-exchange disconnects.
//
// Endpoints are abstracted behind net::Endpoint so the transport layer
// stays below core/ and server/; EndpointRef adapts any class with the
// take_output / receive / recycle / alive vocabulary (ClientConnection,
// Http2Server) without those classes inheriting anything. Faults are
// recorded as trace events (EventKind::kFault) so annotated JSONL shows
// the cause next to its protocol-level effect.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/status.h"

namespace h2r::net {

class ExchangeDriver;

// --------------------------------------------------------------- endpoints

/// One end of a byte-stream connection, as the transport sees it.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Drains the octets this endpoint wants on the wire.
  [[nodiscard]] virtual Bytes take_output() = 0;
  /// Delivers inbound octets (any segmentation; endpoints reassemble).
  virtual void receive(std::span<const std::uint8_t> bytes) = 0;
  /// Hands a drained output buffer back for reuse.
  virtual void recycle(Bytes buffer) = 0;
  /// False once the endpoint considers the connection unusable.
  [[nodiscard]] virtual bool alive() const = 0;
  /// The transport is gone (disconnect / truncation). Default: ignore —
  /// endpoints that track a terminal cause (ClientConnection) override.
  virtual void on_transport_close(const Status& status) { (void)status; }
};

/// Adapts any type with the endpoint vocabulary to net::Endpoint by
/// reference. `on_transport_close` is forwarded only when T has it.
template <typename T>
class EndpointRef final : public Endpoint {
 public:
  explicit EndpointRef(T& impl) : impl_(impl) {}

  [[nodiscard]] Bytes take_output() override { return impl_.take_output(); }
  void receive(std::span<const std::uint8_t> bytes) override {
    impl_.receive(bytes);
  }
  void recycle(Bytes buffer) override { impl_.recycle(std::move(buffer)); }
  [[nodiscard]] bool alive() const override { return impl_.alive(); }
  void on_transport_close(const Status& status) override {
    if constexpr (requires(T& t) { t.on_transport_close(status); }) {
      impl_.on_transport_close(status);
    }
  }

 private:
  T& impl_;
};

// ----------------------------------------------------------------- results

/// Per-exchange deadline: every probe runs under one of these so a faulted
/// exchange can never hang a scan worker.
struct ExchangeLimits {
  /// Lockstep rounds before the exchange is declared timed out. The
  /// historical default: well above any legitimate conversation.
  int max_rounds = 4096;
  /// Total octets (both directions) before the exchange is declared timed
  /// out; 0 = unlimited.
  std::uint64_t max_bytes = 0;
};

enum class ExchangeOutcome : std::uint8_t {
  kQuiescent,     ///< both directions idle — the normal end state
  kRoundCap,      ///< ExchangeLimits::max_rounds exhausted (deadline)
  kByteCap,       ///< ExchangeLimits::max_bytes exhausted (deadline)
  kDisconnected,  ///< the transport injected a hard disconnect
};

std::string_view to_string(ExchangeOutcome o) noexcept;

/// The delivery fault classes FaultyTransport can inject.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kTruncate,    ///< cut one direction at an octet offset; tail never arrives
  kCorrupt,     ///< flip bits in one octet, keep delivering
  kStall,       ///< hold one direction's delivery for N rounds, then resume
  kDisconnect,  ///< hard close mid-exchange: both directions die at once
};

std::string_view to_string(FaultKind k) noexcept;

/// What one Transport::run call did.
struct ExchangeResult {
  ExchangeOutcome outcome = ExchangeOutcome::kQuiescent;
  int rounds = 0;
  std::uint64_t bytes_c2s = 0;
  std::uint64_t bytes_s2c = 0;
  /// The fault that fired during this run (kNone on clean exchanges).
  FaultKind fault = FaultKind::kNone;

  [[nodiscard]] bool deadline_hit() const noexcept {
    return outcome == ExchangeOutcome::kRoundCap ||
           outcome == ExchangeOutcome::kByteCap;
  }
};

// -------------------------------------------------------------- fault plan

/// A fully-determined delivery schedule for one connection. Pure value:
/// generate() is a function of (seed, probability) alone, so the same seed
/// reproduces the same faults byte-for-byte — the property the scan's
/// determinism suite pins.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Segmentation: chunks drawn uniformly in [1, max_chunk] octets;
  /// 0 = deliver each round's bytes whole (no re-segmentation).
  std::uint32_t max_chunk = 0;
  /// Deliver in wire-frame-aligned spans (at most one completed HTTP/2
  /// frame per receive call) instead of rng-sized chunks. Scan-generated
  /// plans use this: it keeps the frame-interleaving semantics of chunked
  /// delivery — the receiver still reacts to every frame before seeing the
  /// next — at a per-frame instead of per-chunk delivery cost. When set,
  /// max_chunk is not consulted. Explicit dribble plans (tests) leave it
  /// off and keep exact rng segmentation.
  bool frame_aligned = false;
  /// The (at most one) delivery fault this connection suffers.
  FaultKind kind = FaultKind::kNone;
  trace::Direction dir = trace::Direction::kClientToServer;
  /// Cumulative octet offset, in `dir`, where the fault fires. Offsets are
  /// drawn small enough to routinely land mid-frame-header and mid-payload.
  std::uint64_t at_byte = 0;
  int stall_rounds = 0;        ///< kStall: rounds to hold delivery
  std::uint8_t xor_mask = 0;   ///< kCorrupt: bits flipped in the octet

  bool operator==(const FaultPlan&) const = default;

  /// "clean chunk<=64" / "truncate s2c@137 chunk<=1" — for logs and tests.
  [[nodiscard]] std::string describe() const;

  /// Derives a plan from @p seed. With probability @p fault_probability the
  /// plan carries one fault (kind, direction, offset all seed-derived);
  /// segmentation is always on. Same (seed, probability) ⇒ same plan.
  static FaultPlan generate(std::uint64_t seed, double fault_probability);
};

/// Per-connection fault probability from a path's packet-loss rate: lossy
/// sites (PathModel::loss_rate) fault proportionally more often, on top of
/// the scan-wide floor. Clamped to [0, 0.95] so no site faults always.
[[nodiscard]] double fault_probability(double loss_rate, double floor) noexcept;

// ------------------------------------------------------------------ ledger

/// Accumulates exchange outcomes across every connection a probe sequence
/// opens against one site, so the scan can classify the site into exactly
/// one outcome class. The attempt_* flags cover the current retry attempt;
/// settle_attempt() folds them into the final_* flags once no retry will
/// follow (see core::probe_with_retry).
struct ExchangeLedger {
  std::uint64_t exchanges = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t deadline_hits = 0;
  double backoff_ms = 0.0;  ///< simulated retry backoff, accumulated

  // Parking (ExchangeDriver): a stall held delivery, so the driver skipped
  // the dead rounds in one step instead of spinning the pump through them.
  // Booked identically by the sequential and event-loop scan drivers — the
  // park points are a property of the exchange, not of who resumes it.
  std::uint64_t parks = 0;          ///< park events on this site's exchanges
  std::uint64_t parked_rounds = 0;  ///< rounds skipped while parked
  std::vector<int> park_durations;  ///< per-park skipped rounds, in order

  void note_park(int rounds) {
    ++parks;
    parked_rounds += static_cast<std::uint64_t>(rounds);
    park_durations.push_back(rounds);
  }

  bool attempt_deadline = false;
  bool attempt_disconnect = false;
  bool attempt_truncated = false;

  bool final_deadline = false;
  bool final_disconnect = false;
  bool final_truncated = false;

  void begin_attempt() noexcept {
    attempt_deadline = attempt_disconnect = attempt_truncated = false;
  }
  [[nodiscard]] bool attempt_faulted() const noexcept {
    return attempt_deadline || attempt_disconnect || attempt_truncated;
  }
  void note_retry(double backoff) noexcept {
    ++retries;
    backoff_ms += backoff;
  }
  void settle_attempt() noexcept {
    final_deadline = final_deadline || attempt_deadline;
    final_disconnect = final_disconnect || attempt_disconnect;
    final_truncated = final_truncated || attempt_truncated;
  }

  /// Folds one exchange's result into the current attempt.
  void note(const ExchangeResult& result) noexcept;
};

// --------------------------------------------------------------- transport

/// Owns the byte shuttle between a client and a server endpoint. One
/// transport instance models one connection: successive run() calls
/// continue the same byte streams (offsets, pending holds, injected-fault
/// state all persist).
class Transport {
 public:
  explicit Transport(trace::Recorder* recorder = nullptr,
                     ExchangeLedger* ledger = nullptr)
      : recorder_(recorder), ledger_(ledger) {}
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Pumps bytes both ways until quiescent, a fault ends the connection, or
  /// a deadline trips. Never hangs: every exit path is bounded by @p limits.
  /// Implemented on the resumable ExchangeDriver with parked stretches
  /// skipped inline, so it stays bit-identical to driving the exchange from
  /// an event loop.
  ExchangeResult run_endpoints(Endpoint& client, Endpoint& server,
                               const ExchangeLimits& limits = {});

  /// Convenience: adapts concrete endpoint types (ClientConnection,
  /// Http2Server) in place.
  template <typename C, typename S>
  ExchangeResult run(C& client, S& server, const ExchangeLimits& limits = {}) {
    EndpointRef<C> c(client);
    EndpointRef<S> s(server);
    return run_endpoints(c, s, limits);
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] trace::Recorder* recorder() const noexcept { return recorder_; }
  [[nodiscard]] ExchangeLedger* ledger() const noexcept { return ledger_; }

 protected:
  friend class ExchangeDriver;

  /// What one round of byte shuttling did, as the driver needs to see it.
  struct RoundOutcome {
    bool progressed = false;  ///< octets moved, a stall ticked, a fault fired
    bool terminal = false;    ///< the exchange is over now (disconnect)
    /// When the round would do nothing but tick stall countdowns, the
    /// number of such dead rounds ahead — the driver parks instead of
    /// spinning. 0 on any round with real work.
    int parkable = 0;
  };

  /// Runs one lockstep round: pull fresh endpoint output, deliver what the
  /// policy allows, fold byte counts into @p result. Terminal rounds set
  /// result.outcome themselves.
  virtual RoundOutcome round_once(Endpoint& client, Endpoint& server,
                                  ExchangeResult& result) = 0;
  /// The connection died in an earlier run on this transport. Implementations
  /// set the outcome on @p result and return true to skip the round loop.
  virtual bool exchange_dead(ExchangeResult& result) {
    (void)result;
    return false;
  }
  /// The driver skipped @p rounds parked rounds in one step; advance any
  /// per-round timers (stall countdowns) by the same amount.
  virtual void on_parked_rounds(int rounds) { (void)rounds; }

  /// Ledger fold + kRoundMark bookkeeping shared by implementations.
  void finish(ExchangeResult& result) {
    if (ledger_ != nullptr) ledger_->note(result);
  }
  void mark_round(int round) {
    if (recorder_ == nullptr) return;
    recorder_->record({.kind = trace::EventKind::kRoundMark,
                       .detail_a = static_cast<std::uint32_t>(round)});
  }

  trace::Recorder* recorder_;
  ExchangeLedger* ledger_;
};

/// One connection's exchange broken into resumable steps, so an event loop
/// can multiplex thousands of in-flight exchanges and park the stalled ones
/// instead of spinning their pumps. Transport::run_endpoints is a driver
/// run to completion with parks skipped inline — by construction the two
/// ways of driving an exchange are bit-identical (rounds, byte counts,
/// trace events, ledger accounting).
///
/// Lifecycle: pump() advances rounds until the exchange parks or finishes.
/// While kParked, park_rounds() says how many virtual rounds the exchange
/// sleeps; unpark() books them (round marks, stall countdowns, ledger) and
/// re-arms pump(). result() is valid once kDone.
class ExchangeDriver {
 public:
  enum class State : std::uint8_t { kRunning, kParked, kDone };

  ExchangeDriver(Transport& transport, Endpoint& client, Endpoint& server,
                 const ExchangeLimits& limits = {})
      : t_(transport), client_(client), server_(server), limits_(limits) {}

  /// Advances until the exchange parks or completes. Never hangs: bounded
  /// by the limits like the one-shot pump.
  State pump();
  /// Applies the parked stretch (rounds elapse, stalls tick down) and
  /// returns the driver to kRunning. No-op unless kParked.
  void unpark();

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Rounds this exchange sleeps for; valid while kParked.
  [[nodiscard]] int park_rounds() const noexcept { return park_; }
  /// The finished exchange's result; valid once kDone.
  [[nodiscard]] const ExchangeResult& result() const noexcept {
    return result_;
  }

 private:
  void complete();

  Transport& t_;
  Endpoint& client_;
  Endpoint& server_;
  ExchangeLimits limits_;
  ExchangeResult result_;
  int rounds_ = 0;
  int park_ = 0;
  State state_ = State::kRunning;
  bool started_ = false;
};

/// The historical perfect pump: each round ships all pending client bytes,
/// then all pending server bytes, whole. Bit-for-bit compatible with the
/// pre-seam core::run_exchange (byte stream, round-mark events, recycling).
class LockstepTransport final : public Transport {
 public:
  using Transport::Transport;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "lockstep";
  }

 protected:
  RoundOutcome round_once(Endpoint& client, Endpoint& server,
                          ExchangeResult& result) override;
};

/// Incremental wire-format scanner FaultyTransport uses to end delivery
/// spans at HTTP/2 frame boundaries. It understands just enough of the
/// stream to find them: the 24-octet client connection preface, HTTP/1.1
/// text up to its blank line (the h2c upgrade exchange), and the 9-octet
/// frame header's length field. Corruption is not special-cased: the
/// scanner reads the same post-fault octets the endpoint will parse, so
/// the two views of frame boundaries cannot diverge.
class WireCursor {
 public:
  /// @p client_to_server selects which leading literal to expect: the h2
  /// client preface (c2s) or an "HTTP/" status line (s2c, h2c upgrades).
  explicit WireCursor(bool client_to_server) noexcept
      : c2s_(client_to_server) {}

  /// Length of the next delivery span within @p avail: up to and including
  /// the earliest boundary, or all of @p avail when none falls inside.
  /// Never 0 for non-empty input. Does not advance the cursor.
  [[nodiscard]] std::size_t preview(
      std::span<const std::uint8_t> avail) const {
    WireCursor probe = *this;
    return probe.scan(avail, /*stop_at_boundary=*/true);
  }

  /// Advances the cursor over octets actually delivered.
  void advance(std::span<const std::uint8_t> delivered) {
    (void)scan(delivered, /*stop_at_boundary=*/false);
  }

 private:
  enum class Phase : std::uint8_t { kProbe, kText, kHeader, kPayload };

  std::size_t scan(std::span<const std::uint8_t> s, bool stop_at_boundary);

  bool c2s_;
  Phase phase_ = Phase::kProbe;
  std::uint8_t probe_pos_ = 0;  ///< literal octets matched so far
  std::uint8_t crlf_ = 0;       ///< octets of "\r\n\r\n" matched (kText)
  std::uint8_t header_have_ = 0;
  std::array<std::uint8_t, 9> header_{};
  std::uint32_t payload_left_ = 0;
};

/// Adversarial delivery driven by a FaultPlan. Deterministic: the same plan
/// over the same endpoints reproduces the same delivery schedule.
class FaultyTransport final : public Transport {
 public:
  explicit FaultyTransport(FaultPlan plan,
                           trace::Recorder* recorder = nullptr,
                           ExchangeLedger* ledger = nullptr);
  /// Hands the per-direction hold buffers to the thread's BufferPool.
  ~FaultyTransport() override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "faulty";
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// True once an injected fault has fired on this connection.
  [[nodiscard]] bool fault_fired() const noexcept { return fault_fired_; }

 protected:
  RoundOutcome round_once(Endpoint& client, Endpoint& server,
                          ExchangeResult& result) override;
  bool exchange_dead(ExchangeResult& result) override;
  void on_parked_rounds(int rounds) override;

 private:
  /// One direction's delivery state, persistent across run() calls.
  struct DirState {
    explicit DirState(bool client_to_server) : cursor(client_to_server) {}
    Bytes pending;          ///< taken from the source, not yet delivered
    std::size_t pos = 0;    ///< consumed prefix of `pending`
    std::uint64_t offset = 0;  ///< cumulative octets delivered in this dir
    int stall_left = 0;     ///< rounds left holding delivery
    bool cut = false;       ///< truncated: drop everything from now on
    WireCursor cursor;      ///< frame-boundary tracker (frame_aligned plans)
  };

  /// Moves @p fresh (an endpoint's drained output) into @p d's hold. An
  /// empty hold swaps buffers with it instead of copying, leaving @p fresh
  /// holding the old hold's storage for recycling.
  static void hold(DirState& d, Bytes& fresh);
  /// Delivers as much of @p d's pending bytes as the plan allows this
  /// round. Returns true when time observably advanced (octets delivered,
  /// a stall ticked, or a fault fired).
  bool step(DirState& d, trace::Direction dir, Endpoint& dst,
            Endpoint& client, Endpoint& server, ExchangeResult& result);
  void record_fault(trace::Direction dir, std::uint64_t at,
                    std::uint32_t detail_b);

  FaultPlan plan_;
  Rng chunk_rng_;
  DirState c2s_{true};
  DirState s2c_{false};
  bool fault_armed_;
  bool fault_fired_ = false;
  bool disconnected_ = false;
};

}  // namespace h2r::net
