// The H2Scope probe suite — one function per measurement method of
// Section III of the paper, each returning a structured result.
//
// Every probe opens a fresh connection to the target (as the paper's scans
// do) so no probe contaminates another's HPACK or flow-control state, and
// the scan runs every probe this way. The connection is fresh on the wire,
// not in memory: its client and engine are a pair leased from the target's
// EndpointSlot and rewound, not rebuilt.
//
// Each probe is one plain blocking function. Its exchanges run through
// Transport::run, which skips a faulted transport's stalled stretches
// inline (ExchangeDriver parks) and books them on the target's ledger, so
// a stall costs no spun rounds and no scheduler is needed above it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/client.h"
#include "h2/constants.h"
#include "net/alpn.h"
#include "net/path.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "util/rng.h"

namespace h2r::core {

/// Fault injection applied to every connection a probe opens against one
/// target (see net::FaultyTransport). Off by default: the plain scan runs
/// over the perfect lockstep pump, bit-identical to the historical one.
struct FaultConfig {
  bool enabled = false;
  /// Base seed; each connection derives its own FaultPlan from
  /// (seed, connection ordinal), so a probe sequence is deterministic.
  std::uint64_t seed = 0;
  /// Per-connection fault probability (net::fault_probability folds the
  /// site's PathModel::loss_rate into this before it lands here).
  double probability = 0.0;
};

/// Bounded fresh-connection retry for probes on faulted transports: a probe
/// whose attempt hit a transport fault or deadline is re-run from scratch
/// (fresh connections, fresh FaultPlans) with simulated backoff.
struct RetryPolicy {
  int max_attempts = 2;  ///< total attempts including the first
  double backoff_base_ms = 50.0;
  double backoff_multiplier = 2.0;
};

struct Target;
class EndpointSlot;

/// A live claim on an EndpointSlot's client/engine pair; releases the slot
/// when destroyed. Move-only.
class EndpointLease {
 public:
  EndpointLease(EndpointLease&& other) noexcept
      : slot_(std::exchange(other.slot_, nullptr)) {}
  EndpointLease& operator=(EndpointLease&&) = delete;
  EndpointLease(const EndpointLease&) = delete;
  ~EndpointLease();

  [[nodiscard]] ClientConnection& client() const;
  [[nodiscard]] server::Http2Server& server() const;
  /// The connection's transport: lockstep, or faulty with the plan of the
  /// target's next connection ordinal (see Target::make_transport).
  [[nodiscard]] net::Transport& transport() const;

 private:
  friend class EndpointSlot;
  explicit EndpointLease(EndpointSlot* slot) noexcept : slot_(slot) {}

  EndpointSlot* slot_;
};

/// One reusable client/engine pair and the transports between them. Every
/// probe connection leases it instead of constructing endpoints: lease()
/// rewinds the pair for the target (ClientConnection::reset, then
/// Target::reset_server — client first, so the wiretap's connection marker
/// precedes the server preface) and the transport the target's fault
/// settings call for, building each only on first use. A rewound pair is
/// indistinguishable from a newly built one — same wire bytes, same
/// wiretap records — while its HPACK tables, event log and per-stream
/// containers stay warm; when a lease ends, its transport buffers go back
/// to the thread's BufferPool. One lease at a time: leasing a slot that is
/// still leased is a bug (assert).
class EndpointSlot {
 public:
  EndpointSlot() = default;
  EndpointSlot(const EndpointSlot&) = delete;
  EndpointSlot& operator=(const EndpointSlot&) = delete;

  /// The pair as a fresh first connection against @p target, with client
  /// options @p opts (wired through Target::client_options), which the
  /// client copies into the options it holds.
  [[nodiscard]] EndpointLease lease(const Target& target,
                                    const ClientOptions& opts = {});
  [[nodiscard]] bool leased() const noexcept { return leased_; }
  /// The client as the last lease left it — what that connection observed
  /// (null before the first lease).
  [[nodiscard]] const ClientConnection* client() const noexcept {
    return client_ ? &*client_ : nullptr;
  }

 private:
  friend class EndpointLease;

  std::optional<ClientConnection> client_;
  std::optional<server::Http2Server> server_;
  std::optional<net::LockstepTransport> lockstep_;
  std::optional<net::FaultyTransport> faulty_;
  net::Transport* transport_ = nullptr;  ///< the leased one of the two
  bool leased_ = false;
};

/// One scan target: a (virtual) host with its server behaviour, content,
/// and network path.
struct Target {
  std::string host;
  server::ServerProfile profile;
  server::Site site;
  net::PathModel path;
  /// Whether this host offers "h2" at all (non-HTTP/2 corpus sites don't).
  bool offers_h2 = true;
  /// Optional H2Wiretap sink shared by every connection (client and server
  /// side) a probe opens against this target. Null = tracing off.
  trace::Recorder* recorder = nullptr;
  /// Per-exchange deadline every probe runs under; the defaults match the
  /// historical round cap, plus a byte cap generous enough that only a
  /// runaway conversation trips it.
  net::ExchangeLimits limits{.max_rounds = 4096,
                             .max_bytes = 256ull * 1024 * 1024};
  /// Delivery-fault injection for every connection against this target.
  FaultConfig faults;
  /// Outcome accumulator shared by every transport this target creates
  /// (scan-owned, one per site). Null = no accounting.
  net::ExchangeLedger* ledger = nullptr;
  /// The endpoint slot this target's probe connections lease (the scan
  /// passes its per-site scratch slot). Null = a slot the target owns,
  /// built on the first lease.
  EndpointSlot* endpoints = nullptr;

  Target() = default;
  /// Copying clears the cached shared profile/site so a copy that then
  /// tweaks `profile` (probe_concurrency_limit does) serves the tweaked
  /// values. The cache refills on the copy's first make_server().
  Target(const Target& other);
  Target& operator=(const Target& other);
  Target(Target&&) = default;
  Target& operator=(Target&&) = default;

  /// Builds a server for the next connection. The profile and site are
  /// shared with the engine (cached on first call), not deep-copied — so
  /// don't mutate the public `profile` / `site` fields after the first
  /// make_server(); copy the Target instead.
  [[nodiscard]] server::Http2Server make_server() const {
    return server::Http2Server(shared_profile(), shared_site(),
                               server::Http2Server::StartMode::kTls, recorder);
  }

  /// Rewinds @p server into a fresh first connection against this target —
  /// how an EndpointSlot serves site after site without reconstructing.
  /// The engine borrows `profile` and `site` without owning them: it must
  /// not be used past this Target's lifetime or the next field rewrite.
  /// The slot keeps that promise, since it reads its engine only while
  /// leased and re-points it at every lease.
  void reset_server(server::Http2Server& server) const {
    server.reset(std::shared_ptr<const server::ServerProfile>(
                     std::shared_ptr<void>(), &profile),
                 std::shared_ptr<const server::Site>(std::shared_ptr<void>(),
                                                     &site),
                 server::Http2Server::StartMode::kTls, recorder);
  }

  /// Back to connection ordinal 0, with no cached shared copies: what a
  /// Target newly built with the current fields would be. For a Target
  /// whose fields were rewritten for another host
  /// (corpus::SiteSpec::fill_target).
  void restart() {
    transport_seq_ = 0;
    cached_profile_.reset();
    cached_site_.reset();
  }

  /// ClientOptions pre-wired to this target's recorder. Probes reason about
  /// DATA frame *sizes* only, so response payload octets are not retained.
  [[nodiscard]] ClientOptions client_options(
      const ClientOptions& opts = {}) const {
    ClientOptions wired = opts;
    wired.recorder = recorder;
    wired.keep = ClientOptions::Keep::kFrameSizes;
    return wired;
  }

  /// A fresh client/engine pair and transport for the next connection
  /// against this target, leased from `endpoints` (or the target's own
  /// slot). Hold the lease for the connection's lifetime.
  [[nodiscard]] EndpointLease lease_endpoints(
      const ClientOptions& opts = {}) const;

  /// A newly built transport for the next connection against this target:
  /// lockstep when faults are off, otherwise a FaultyTransport whose plan
  /// is derived from (faults.seed, connection ordinal). One transport
  /// models one connection — probes that reuse a connection reuse its
  /// transport. Probes take theirs from the lease instead, which rewinds
  /// the slot's transport to the same state.
  [[nodiscard]] std::unique_ptr<net::Transport> make_transport() const;

  /// A target wired to the paper's testbed content for @p profile.
  static Target testbed(server::ServerProfile profile);

 private:
  friend class EndpointSlot;

  /// The fault plan of the next connection (advances the ordinal).
  [[nodiscard]] net::FaultPlan next_fault_plan() const;

  [[nodiscard]] const std::shared_ptr<const server::ServerProfile>&
  shared_profile() const;
  [[nodiscard]] const std::shared_ptr<const server::Site>& shared_site() const;

  /// Ordinal of the next connection, for per-connection fault seeds.
  /// Mutable: handing out a transport doesn't change what the target *is*,
  /// and probes receive `const Target&` everywhere.
  mutable std::uint64_t transport_seq_ = 0;
  /// Lazily built shared copies of `profile` / `site` handed to every
  /// engine this target spawns (one deep copy per site, not per
  /// connection). Cleared by copy so stale values never leak.
  mutable std::shared_ptr<const server::ServerProfile> cached_profile_;
  mutable std::shared_ptr<const server::Site> cached_site_;
  /// The slot leased when `endpoints` is null; never copied.
  mutable std::unique_ptr<EndpointSlot> own_endpoints_;
};

/// Runs @p fn — a probe body that opens fresh connections against
/// @p target — up to policy.max_attempts times, retrying (with simulated
/// backoff booked into the target's ledger) whenever the attempt hit a
/// transport fault or deadline. Returns the last attempt's result; a body
/// that writes its result into caller storage instead returns nothing, and
/// each attempt rewrites that storage. With no ledger or no faults this
/// collapses to a single plain call. Backoff is simulated time, never
/// slept: each one is booked as a park of that many rounds, beside the
/// exchange parks the transport books.
template <typename Fn>
auto probe_with_retry(const Target& target, const RetryPolicy& policy,
                      Fn&& fn) {
  net::ExchangeLedger* ledger = target.ledger;
  double backoff = policy.backoff_base_ms;
  // True once the attempt just run is the last: it settles the ledger.
  const auto settled = [&](int attempt) {
    if (ledger == nullptr || !ledger->attempt_faulted() ||
        attempt >= policy.max_attempts) {
      if (ledger != nullptr) ledger->settle_attempt();
      return true;
    }
    // The attempt was degraded by the transport: book the retry and go
    // again on fresh connections (the failed attempt's flags are dropped —
    // only the final attempt's outcome classifies the site).
    ledger->note_retry(backoff);
    if (const int rounds = static_cast<int>(backoff); rounds > 0) {
      ledger->note_park(rounds);
    }
    backoff *= policy.backoff_multiplier;
    return false;
  };
  for (int attempt = 1;; ++attempt) {
    if (ledger != nullptr) ledger->begin_attempt();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      if (settled(attempt)) return;
    } else {
      auto result = fn();
      if (settled(attempt)) return result;
    }
  }
}

// ------------------------------------------------------------ negotiation

/// Section IV-A: can an HTTP/2 connection be established, and via which
/// TLS extension?
struct NegotiationProbeResult {
  bool alpn_h2 = false;  ///< "h2" selected via ALPN
  bool npn_h2 = false;   ///< "h2" selectable via NPN
  bool h2_established = false;
};

NegotiationProbeResult probe_negotiation(const Target& target);

/// Section IV-A's other connection path: cleartext HTTP/1.1 Upgrade to h2c.
struct H2cProbeResult {
  bool switched = false;       ///< 101 Switching Protocols
  std::string status_line;     ///< what the server actually answered
};

H2cProbeResult probe_h2c_upgrade(const Target& target);

// ---------------------------------------------------------------- settings

/// Section V-C: the SETTINGS values a server announces. nullopt = the
/// parameter was absent from the SETTINGS frame ("NULL" in Tables V-VII).
struct SettingsProbeResult {
  bool headers_received = false;  ///< did a request complete at all
  std::size_t settings_entry_count = 0;  ///< 0 = "NULL" (empty SETTINGS)
  std::optional<std::uint32_t> header_table_size;
  std::optional<std::uint32_t> max_concurrent_streams;
  std::optional<std::uint32_t> initial_window_size;
  std::optional<std::uint32_t> max_frame_size;
  std::optional<std::uint32_t> max_header_list_size;
  /// Connection WINDOW_UPDATE received before any request (Nginx idiom).
  std::uint64_t preemptive_window_bonus = 0;
  std::string server_header;  ///< value of the `server` response header
};

SettingsProbeResult probe_settings(const Target& target);

// ------------------------------------------------------------ multiplexing

/// Section III-A1: N parallel downloads of large objects; multiplexing is
/// inferred from response interleaving.
struct MultiplexingProbeResult {
  bool supported = false;    ///< DATA frames of distinct streams interleaved
  int streams_completed = 0;
  int interleave_switches = 0;  ///< stream changes across the DATA sequence
};

MultiplexingProbeResult probe_multiplexing(const Target& target,
                                           int num_streams = 4);

/// Section V-A (last paragraph): behaviour when the *server* caps
/// MAX_CONCURRENT_STREAMS at 0 or 1: excess requests should be refused.
struct ConcurrencyLimitProbeResult {
  bool refused_when_zero = false;  ///< RST_STREAM on first request at cap 0
  bool refused_second_when_one = false;  ///< RST on 2nd concurrent at cap 1
};

ConcurrencyLimitProbeResult probe_concurrency_limit(const Target& target);

// ------------------------------------------------------------ flow control

/// Section III-B1: does SETTINGS_INITIAL_WINDOW_SIZE = Sframe bound the
/// response DATA frame size?
enum class SmallWindowOutcome : std::uint8_t {
  kRespectsWindow,  ///< first DATA payload == Sframe
  kZeroLengthData,  ///< zero-length DATA received
  kNoResponse,      ///< neither HEADERS nor DATA (LiteSpeed-like)
  kOversized,       ///< DATA larger than the window (violation)
};

std::string_view to_string(SmallWindowOutcome o) noexcept;

struct DataFrameControlResult {
  SmallWindowOutcome outcome = SmallWindowOutcome::kNoResponse;
  std::size_t first_data_size = 0;
  bool headers_received = false;
};

DataFrameControlResult probe_data_frame_control(const Target& target,
                                                std::uint32_t sframe = 1);

/// Section III-B2: with SETTINGS_INITIAL_WINDOW_SIZE = 0 the server must
/// still send HEADERS (flow control governs DATA only).
struct ZeroWindowHeadersResult {
  bool headers_received = false;
  bool data_received = false;  ///< any DATA would be a violation
};

ZeroWindowHeadersResult probe_zero_window_headers(const Target& target);

/// Sections III-B3/III-B4: how the server reacts to a zero or overflowing
/// WINDOW_UPDATE, on stream and connection scope.
enum class UpdateReaction : std::uint8_t {
  kIgnored,
  kRstStream,
  kGoaway,
  kGoawayWithDebug,
};

std::string_view to_string(UpdateReaction r) noexcept;

struct WindowUpdateProbeResult {
  UpdateReaction zero_on_stream = UpdateReaction::kIgnored;
  UpdateReaction zero_on_connection = UpdateReaction::kIgnored;
  UpdateReaction large_on_stream = UpdateReaction::kIgnored;
  UpdateReaction large_on_connection = UpdateReaction::kIgnored;
  std::string zero_debug_data;  ///< GOAWAY debug text, when provided
};

WindowUpdateProbeResult probe_window_update_reactions(const Target& target);
/// The same probe, rewriting @p out: a result the caller keeps (the scan's
/// worker scratch) keeps the storage of its debug text.
void probe_window_update_reactions(const Target& target,
                                   WindowUpdateProbeResult& out);

// ---------------------------------------------------------------- priority

/// Section III-C Algorithm 1. The verdicts mirror §V-E1: priority order
/// inferred from the last DATA frame per stream, from the first, and from
/// both.
struct PriorityProbeResult {
  bool ran = false;  ///< false when context preparation failed
  bool pass_by_last_data = false;
  bool pass_by_first_data = false;
  bool pass_by_both = false;
  /// HEADERS for the probe requests arrived while the connection window
  /// was exhausted (some servers withhold them, §V-D2 note).
  bool headers_during_zero_window = false;

  [[nodiscard]] bool passes() const noexcept { return ran && pass_by_both; }
};

PriorityProbeResult probe_priority_mechanism(const Target& target);

/// Section III-C2: PRIORITY frame making a stream depend on itself.
struct SelfDependencyProbeResult {
  UpdateReaction reaction = UpdateReaction::kIgnored;
};

SelfDependencyProbeResult probe_self_dependency(const Target& target);

// ------------------------------------------------------------------ push

/// Section III-D: enable push, fetch the front page, watch for
/// PUSH_PROMISE.
struct PushProbeResult {
  bool push_received = false;
  std::vector<std::string> pushed_paths;
  std::size_t pushed_bytes = 0;  ///< DATA received on promised streams
};

PushProbeResult probe_server_push(const Target& target,
                                  const std::string& page = "/");
/// The same probe, rewriting @p out and the path strings it already holds.
void probe_server_push(const Target& target, const std::string& page,
                       PushProbeResult& out);

// ------------------------------------------------------------------ hpack

/// Section III-E: H identical requests; compression ratio r of Equation 1.
struct HpackProbeResult {
  bool ran = false;
  double ratio = 1.0;  ///< r = sum(S_i) / (S_1 * H)
  std::vector<std::size_t> header_sizes;
};

HpackProbeResult probe_hpack_ratio(const Target& target, int h = 8,
                                   const std::string& path = "/");
/// The same probe, rewriting @p out and the header_sizes storage it holds.
void probe_hpack_ratio(const Target& target, int h, const std::string& path,
                       HpackProbeResult& out);

// ------------------------------------------------------------------- ping

/// Section III-F: RTT via HTTP/2 PING compared with ICMP, TCP handshake,
/// and HTTP/1.1 request timing.
struct PingProbeResult {
  bool supported = false;  ///< ACK with identical payload received
  std::vector<double> h2_ping_ms;
  std::vector<double> icmp_ms;
  std::vector<double> tcp_handshake_ms;
  std::vector<double> http11_ms;
};

PingProbeResult probe_ping(const Target& target, int samples, Rng& rng);

}  // namespace h2r::core
