#include "core/probes.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "net/upgrade.h"

namespace h2r::core {
namespace {

using h2::ErrorCode;
using h2::FrameType;
using h2::SettingId;

constexpr std::uint32_t kHugeWindow = 0x7FFF'FFFFu;
constexpr std::uint32_t kHalfWindow = 0x4000'0000u;

ClientOptions with_initial_window(std::uint32_t iws) {
  ClientOptions o;
  o.with_initial_window(iws);
  return o;
}

/// How the server reacted on @p client: a received GOAWAY (with or without
/// debug data, copied to @p debug_out when given) wins over an RST_STREAM
/// on @p stream_id; anything else is kIgnored. Shared by the WINDOW_UPDATE
/// and self-dependency probes.
UpdateReaction classify_update_reaction(const ClientConnection& client,
                                        std::optional<std::uint32_t> stream_id,
                                        std::string* debug_out = nullptr) {
  if (client.goaway_received()) {
    const auto& g = *client.goaway();
    if (debug_out != nullptr) {
      debug_out->assign(g.debug_data.begin(), g.debug_data.end());
    }
    return g.debug_data.empty() ? UpdateReaction::kGoaway
                                : UpdateReaction::kGoawayWithDebug;
  }
  if (stream_id && client.rst_on(*stream_id)) return UpdateReaction::kRstStream;
  return UpdateReaction::kIgnored;
}

}  // namespace

std::string_view to_string(SmallWindowOutcome o) noexcept {
  switch (o) {
    case SmallWindowOutcome::kRespectsWindow:
      return "respects-window";
    case SmallWindowOutcome::kZeroLengthData:
      return "zero-length-data";
    case SmallWindowOutcome::kNoResponse:
      return "no-response";
    case SmallWindowOutcome::kOversized:
      return "oversized";
  }
  return "?";
}

std::string_view to_string(UpdateReaction r) noexcept {
  switch (r) {
    case UpdateReaction::kIgnored:
      return "ignore";
    case UpdateReaction::kRstStream:
      return "RST_STREAM";
    case UpdateReaction::kGoaway:
      return "GOAWAY";
    case UpdateReaction::kGoawayWithDebug:
      return "GOAWAY+debug";
  }
  return "?";
}

EndpointLease::~EndpointLease() {
  if (slot_ == nullptr) return;
  // The connection is over: its buffers go back to the pool instead of
  // idling in the slot until the next lease.
  slot_->client_->release_buffers();
  slot_->server_->release_buffers();
  slot_->transport_->release_buffers();
  slot_->leased_ = false;
}

ClientConnection& EndpointLease::client() const { return *slot_->client_; }

server::Http2Server& EndpointLease::server() const { return *slot_->server_; }

net::Transport& EndpointLease::transport() const { return *slot_->transport_; }

EndpointLease EndpointSlot::lease(const Target& target,
                                  const ClientOptions& opts) {
  assert(!leased_ && "EndpointSlot leased twice");
  leased_ = true;
  // Client before server, as in a fresh construction: the wiretap's
  // connection-start marker has to precede the server's preface frames.
  if (client_) {
    client_->reset(target.client_options(opts));
  } else {
    client_.emplace(target.client_options(opts));
  }
  if (server_) {
    target.reset_server(*server_);
  } else {
    server_.emplace(target.make_server());
  }
  if (!target.faults.enabled) {
    if (lockstep_) {
      lockstep_->reset(target.recorder, target.ledger);
    } else {
      lockstep_.emplace(target.recorder, target.ledger);
    }
    transport_ = &*lockstep_;
  } else {
    const net::FaultPlan plan = target.next_fault_plan();
    if (faulty_) {
      faulty_->reset(plan, target.recorder, target.ledger);
    } else {
      faulty_.emplace(plan, target.recorder, target.ledger);
    }
    transport_ = &*faulty_;
  }
  return EndpointLease(this);
}

EndpointLease Target::lease_endpoints(const ClientOptions& opts) const {
  if (endpoints != nullptr) return endpoints->lease(*this, opts);
  if (!own_endpoints_) own_endpoints_ = std::make_unique<EndpointSlot>();
  return own_endpoints_->lease(*this, opts);
}

Target::Target(const Target& other)
    : host(other.host),
      profile(other.profile),
      site(other.site),
      path(other.path),
      offers_h2(other.offers_h2),
      recorder(other.recorder),
      limits(other.limits),
      faults(other.faults),
      ledger(other.ledger),
      endpoints(other.endpoints),
      transport_seq_(other.transport_seq_) {}

Target& Target::operator=(const Target& other) {
  if (this == &other) return *this;
  host = other.host;
  profile = other.profile;
  site = other.site;
  path = other.path;
  offers_h2 = other.offers_h2;
  recorder = other.recorder;
  limits = other.limits;
  faults = other.faults;
  ledger = other.ledger;
  endpoints = other.endpoints;
  transport_seq_ = other.transport_seq_;
  cached_profile_.reset();
  cached_site_.reset();
  return *this;
}

const std::shared_ptr<const server::ServerProfile>& Target::shared_profile()
    const {
  if (!cached_profile_) {
    cached_profile_ = std::make_shared<const server::ServerProfile>(profile);
  }
  return cached_profile_;
}

const std::shared_ptr<const server::Site>& Target::shared_site() const {
  if (!cached_site_) {
    cached_site_ = std::make_shared<const server::Site>(site);
  }
  return cached_site_;
}

Target Target::testbed(server::ServerProfile profile) {
  Target t;
  t.host = profile.key + ".testbed.local";
  t.site = server::Site::standard_testbed_site(t.host);
  t.profile = std::move(profile);
  t.path.label = t.host;
  return t;
}

net::FaultPlan Target::next_fault_plan() const {
  // Each connection gets its own plan: same target state + same faults.seed
  // => the same sequence of plans, independent of which worker runs it.
  std::uint64_t sm = faults.seed + 0x9E3779B97F4A7C15ull * ++transport_seq_;
  return net::FaultPlan::generate(splitmix64(sm), faults.probability);
}

std::unique_ptr<net::Transport> Target::make_transport() const {
  if (!faults.enabled) {
    return std::make_unique<net::LockstepTransport>(recorder, ledger);
  }
  return std::make_unique<net::FaultyTransport>(next_fault_plan(), recorder,
                                                ledger);
}

// ------------------------------------------------------------- negotiation

NegotiationProbeResult probe_negotiation(const Target& target) {
  NegotiationProbeResult out;
  static const std::vector<std::string> client_protocols = {
      net::kProtoH2, net::kProtoHttp11};
  const auto alpn = net::negotiate_alpn(client_protocols, target.profile.tls);
  const auto npn = net::negotiate_npn(client_protocols, target.profile.tls);
  out.alpn_h2 = alpn.selected_h2();
  out.npn_h2 = npn.selected_h2();
  out.h2_established = out.alpn_h2 || out.npn_h2;
  return out;
}

H2cProbeResult probe_h2c_upgrade(const Target& target) {
  net::UpgradeRequest request;
  request.host = target.host;
  request.settings = {{SettingId::kInitialWindowSize,
                       h2::kDefaultInitialWindowSize}};
  const auto result = net::process_upgrade_request(
      net::render_upgrade_request(request), target.profile.supports_h2c);
  return {.switched = result.switched, .status_line = result.status_line};
}

// ----------------------------------------------------------------- settings

SettingsProbeResult probe_settings(const Target& target) {
  SettingsProbeResult out;
  const EndpointLease lease = target.lease_endpoints();
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  const std::uint32_t sid = client.send_request("/");
  transport.run(client, server, target.limits);

  out.settings_entry_count = client.server_settings_entry_count();
  const auto& s = client.server_settings();
  out.header_table_size = s.raw(SettingId::kHeaderTableSize);
  out.max_concurrent_streams = s.raw(SettingId::kMaxConcurrentStreams);
  out.initial_window_size = s.raw(SettingId::kInitialWindowSize);
  out.max_frame_size = s.raw(SettingId::kMaxFrameSize);
  out.max_header_list_size = s.raw(SettingId::kMaxHeaderListSize);
  out.preemptive_window_bonus = client.preemptive_window_bonus();
  if (const auto* headers = client.response_headers(sid)) {
    out.headers_received = true;
    out.server_header = std::string(hpack::find_header(*headers, "server"));
  }
  return out;
}

// ------------------------------------------------------------- multiplexing

MultiplexingProbeResult probe_multiplexing(const Target& target,
                                           int num_streams) {
  MultiplexingProbeResult out;
  const EndpointLease lease =
      target.lease_endpoints(with_initial_window(kHugeWindow));
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  std::vector<std::uint32_t> streams;
  streams.reserve(static_cast<std::size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) {
    streams.push_back(client.send_request("/large/" + std::to_string(i)));
  }
  transport.run(client, server, target.limits);

  std::uint32_t prev = 0;
  for (const auto& ev : client.events()) {
    if (ev.frame.type() != FrameType::kData) continue;
    if (prev != 0 && ev.frame.stream_id != prev) ++out.interleave_switches;
    prev = ev.frame.stream_id;
  }
  for (std::uint32_t sid : streams) {
    if (client.stream_complete(sid)) ++out.streams_completed;
  }
  // FCFS transmission yields exactly num_streams-1 switches; anything well
  // beyond that means responses progressed concurrently.
  out.supported = out.streams_completed == num_streams &&
                  out.interleave_switches >= num_streams * 2;
  return out;
}

ConcurrencyLimitProbeResult probe_concurrency_limit(const Target& target) {
  ConcurrencyLimitProbeResult out;
  {
    Target capped = target;
    capped.profile.max_concurrent_streams = 0;
    const EndpointLease lease = capped.lease_endpoints();
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    const std::uint32_t sid = client.send_request("/small");
    transport.run(client, server, capped.limits);
    out.refused_when_zero =
        client.rst_on(sid) == std::optional<ErrorCode>(ErrorCode::kRefusedStream);
  }
  {
    Target capped = target;
    capped.profile.max_concurrent_streams = 1;
    const EndpointLease lease = capped.lease_endpoints();
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    // Two requests for objects large enough that the first is still active
    // when the second arrives.
    const std::uint32_t first = client.send_request("/large/0");
    const std::uint32_t second = client.send_request("/large/1");
    transport.run(client, server, capped.limits);
    out.refused_second_when_one =
        !client.rst_on(first).has_value() &&
        client.rst_on(second) ==
            std::optional<ErrorCode>(ErrorCode::kRefusedStream);
  }
  return out;
}

// ------------------------------------------------------------- flow control

DataFrameControlResult probe_data_frame_control(const Target& target,
                                                std::uint32_t sframe) {
  DataFrameControlResult out;
  const EndpointLease lease =
      target.lease_endpoints(with_initial_window(sframe));
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  const std::uint32_t sid = client.send_request("/small");
  transport.run(client, server, target.limits);

  out.headers_received = client.response_headers(sid) != nullptr;
  const ReceivedFrame* data = client.first_frame_of(FrameType::kData, sid);
  if (data == nullptr) {
    out.outcome = SmallWindowOutcome::kNoResponse;
    return out;
  }
  out.first_data_size = data->header_block_size;
  if (out.first_data_size == sframe) {
    out.outcome = SmallWindowOutcome::kRespectsWindow;
  } else if (out.first_data_size == 0) {
    out.outcome = SmallWindowOutcome::kZeroLengthData;
  } else {
    out.outcome = SmallWindowOutcome::kOversized;
  }
  return out;
}

ZeroWindowHeadersResult probe_zero_window_headers(const Target& target) {
  ZeroWindowHeadersResult out;
  const EndpointLease lease = target.lease_endpoints(with_initial_window(0));
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  const std::uint32_t sid = client.send_request("/small");
  transport.run(client, server, target.limits);
  out.headers_received = client.response_headers(sid) != nullptr;
  for (const ReceivedFrame& ev : client.events()) {
    if (ev.frame.type() == FrameType::kData && ev.frame.stream_id == sid &&
        ev.header_block_size != 0) {
      out.data_received = true;
    }
  }
  return out;
}

WindowUpdateProbeResult probe_window_update_reactions(const Target& target) {
  WindowUpdateProbeResult out;
  probe_window_update_reactions(target, out);
  return out;
}

void probe_window_update_reactions(const Target& target,
                                   WindowUpdateProbeResult& out) {
  out.zero_debug_data.clear();
  {  // zero increment, stream scope — on a stream mid-response
    ClientOptions opts;
    opts.auto_stream_window_update = false;  // keep the stream open/blocked
    const EndpointLease lease = target.lease_endpoints(opts);
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    const std::uint32_t sid = client.send_request("/large/0");
    transport.run(client, server, target.limits);
    client.send_window_update(sid, 0);
    transport.run(client, server, target.limits);
    out.zero_on_stream = classify_update_reaction(client, sid, &out.zero_debug_data);
  }
  {  // zero increment, connection scope
    const EndpointLease lease = target.lease_endpoints();
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    client.send_window_update(0, 0);
    transport.run(client, server, target.limits);
    out.zero_on_connection = classify_update_reaction(client, std::nullopt);
  }
  {  // overflowing increments, stream scope (two halves summing past 2^31-1)
    ClientOptions opts;
    opts.auto_stream_window_update = false;
    const EndpointLease lease = target.lease_endpoints(opts);
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    const std::uint32_t sid = client.send_request("/large/0");
    transport.run(client, server, target.limits);
    client.send_window_update(sid, kHalfWindow);
    client.send_window_update(sid, kHalfWindow);
    transport.run(client, server, target.limits);
    out.large_on_stream = classify_update_reaction(client, sid);
  }
  {  // overflowing increments, connection scope
    const EndpointLease lease = target.lease_endpoints();
    ClientConnection& client = lease.client();
    server::Http2Server& server = lease.server();
    net::Transport& transport = lease.transport();
    const std::uint32_t sid = client.send_request("/large/0");
    (void)sid;
    client.send_window_update(0, kHalfWindow);
    client.send_window_update(0, kHalfWindow);
    transport.run(client, server, target.limits);
    out.large_on_connection = classify_update_reaction(client, std::nullopt);
  }
}

// ----------------------------------------------------------------- priority

namespace {

/// Algorithm 1's body, from the drain step on. Assumes @p client has huge
/// (2^31-1) stream windows planted, both automatic window updates off, and
/// a connection send window holding exactly the 65,535-octet default (the
/// drain check verifies this).
PriorityProbeResult run_priority_rounds(ClientConnection& client,
                                        server::Http2Server& server,
                                        net::Transport& transport,
                                        const net::ExchangeLimits& limits) {
  PriorityProbeResult out;

  // Step 1 (Algorithm 1 lines 2-21): drain the connection window.
  const std::uint32_t drain = client.send_request("/object/0");  // 64 KiB
  transport.run(client, server, limits);
  if (client.data_received(drain) != h2::kDefaultInitialWindowSize) {
    return out;  // context preparation failed; verdict unreliable
  }
  client.send_rst_stream(drain, ErrorCode::kCancel);
  transport.run(client, server, limits);

  // Step 2 (lines 22-28): six requests with the Table I dependency tree...
  auto prio = [](std::uint32_t dep, bool excl = false) {
    return h2::PriorityInfo{.dependency = dep, .weight_field = 0,
                            .exclusive = excl};
  };
  const std::uint32_t a = client.send_request("/object/1", prio(0));
  const std::uint32_t b = client.send_request("/object/2", prio(a));
  const std::uint32_t c = client.send_request("/object/3", prio(a));
  const std::uint32_t d = client.send_request("/object/4", prio(a));
  const std::uint32_t e = client.send_request("/object/5", prio(b));
  const std::uint32_t f = client.send_request("/object/6", prio(d));
  transport.run(client, server, limits);
  out.headers_during_zero_window = client.response_headers(a) != nullptr;

  // ...then PRIORITY frames reshaping it to  D -> A -> {B, C, F}, E under C
  // (the §5.3.3-style reprioritization the paper describes in §V-E1).
  client.send_priority(d, prio(0));
  client.send_priority(a, prio(d, /*excl=*/true));
  client.send_priority(e, prio(c));
  transport.run(client, server, limits);

  // Step 3 (line 29-30): reopen the connection window and observe order.
  client.send_window_update(0, 0x7FFF'0000u);
  transport.run(client, server, limits);

  // First and last DATA arrival per stream, indexed like `all`.
  const std::array<std::uint32_t, 6> all = {a, b, c, d, e, f};
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::array<std::size_t, 6> first, last;
  first.fill(kUnseen);
  last.fill(kUnseen);
  for (const auto& ev : client.events()) {
    if (ev.frame.type() != FrameType::kData) continue;
    const auto at = std::find(all.begin(), all.end(), ev.frame.stream_id);
    if (at == all.end()) continue;
    const auto i = static_cast<std::size_t>(at - all.begin());
    if (first[i] == kUnseen) first[i] = ev.sequence;
    last[i] = ev.sequence;
  }
  for (std::uint32_t sid : all) {
    if (!client.stream_complete(sid)) return out;  // ran stays false
  }
  out.ran = true;

  auto check = [](const std::array<std::size_t, 6>& seq) {
    // A stream that completed without DATA has no arrival; reading it
    // throws, as the lookup of a missing key would.
    const auto at = [&seq](std::size_t i) {
      if (seq[i] == kUnseen) {
        throw std::out_of_range("run_priority_rounds: stream without DATA");
      }
      return seq[i];
    };
    // D before everything; A before everything except D; C before E.
    constexpr std::size_t ia = 0, ic = 2, id = 3, ie = 4;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (i != id && at(id) >= at(i)) return false;
      if (i != id && i != ia && at(ia) >= at(i)) return false;
    }
    return at(ic) < at(ie);
  };
  out.pass_by_first_data = check(first);
  out.pass_by_last_data = check(last);
  out.pass_by_both = out.pass_by_first_data && out.pass_by_last_data;
  return out;
}

}  // namespace

PriorityProbeResult probe_priority_mechanism(const Target& target) {
  // Huge stream windows so only the connection window gates DATA; no
  // automatic connection window updates, so draining it blocks the server.
  ClientOptions opts = with_initial_window(kHugeWindow);
  opts.auto_connection_window_update = false;
  opts.auto_stream_window_update = false;
  const EndpointLease lease = target.lease_endpoints(opts);
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();  // six exchanges
  return run_priority_rounds(client, server, transport, target.limits);
}

SelfDependencyProbeResult probe_self_dependency(const Target& target) {
  SelfDependencyProbeResult out;
  ClientOptions opts;
  opts.auto_stream_window_update = false;  // keep the stream alive
  const EndpointLease lease = target.lease_endpoints(opts);
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  const std::uint32_t sid = client.send_request("/large/0");
  client.send_priority(sid, {.dependency = sid, .weight_field = 0});
  transport.run(client, server, target.limits);
  out.reaction = classify_update_reaction(client, sid);
  return out;
}

// --------------------------------------------------------------------- push

PushProbeResult probe_server_push(const Target& target,
                                  const std::string& page) {
  PushProbeResult out;
  probe_server_push(target, page, out);
  return out;
}

void probe_server_push(const Target& target, const std::string& page,
                       PushProbeResult& out) {
  ClientOptions opts;
  opts.settings = {{SettingId::kEnablePush, 1}};  // §III-D: opt in explicitly
  const EndpointLease lease = target.lease_endpoints(opts);
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  client.send_request(page);
  transport.run(client, server, target.limits);
  // Each path rewrites a string the result already holds.
  std::size_t paths = 0;
  out.pushed_bytes = 0;
  for (const auto& [promised_id, request] : client.pushes()) {
    const std::string_view path = hpack::find_header(request, ":path");
    if (paths < out.pushed_paths.size()) {
      out.pushed_paths[paths].assign(path);
    } else {
      out.pushed_paths.emplace_back(path);
    }
    ++paths;
    out.pushed_bytes += client.data_received(promised_id);
  }
  out.pushed_paths.resize(paths);
  out.push_received = paths != 0;
}

// -------------------------------------------------------------------- hpack

HpackProbeResult probe_hpack_ratio(const Target& target, int h,
                                   const std::string& path) {
  HpackProbeResult out;
  probe_hpack_ratio(target, h, path, out);
  return out;
}

void probe_hpack_ratio(const Target& target, int h, const std::string& path,
                       HpackProbeResult& out) {
  out.ran = false;
  out.ratio = 1.0;
  out.header_sizes.clear();
  const EndpointLease lease = target.lease_endpoints();
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  // Sequential requests so each response block sees the dynamic table state
  // left by the previous one (§III-E). A fresh connection numbers them 1,
  // 3, 5, ...: request i is stream first + 2i.
  std::uint32_t first = 0;
  for (int i = 0; i < h; ++i) {
    const std::uint32_t sid = client.send_request(path);
    if (i == 0) first = sid;
    transport.run(client, server, target.limits);
  }
  for (int i = 0; i < h; ++i) {
    const ReceivedFrame* headers = client.first_frame_of(
        FrameType::kHeaders, first + 2 * static_cast<std::uint32_t>(i));
    if (headers == nullptr) return;  // ran stays false
    out.header_sizes.push_back(headers->header_block_size);
  }
  const double s1 = static_cast<double>(out.header_sizes.front());
  double sum = 0;
  for (std::size_t s : out.header_sizes) sum += static_cast<double>(s);
  out.ratio = sum / (s1 * static_cast<double>(h));
  out.ran = true;
}

// --------------------------------------------------------------------- ping

PingProbeResult probe_ping(const Target& target, int samples, Rng& rng) {
  PingProbeResult out;
  const EndpointLease lease = target.lease_endpoints();
  ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();
  const std::array<std::uint8_t, 8> opaque = {0x13, 0x37, 0xC0, 0xDE,
                                              0x00, 0x01, 0x02, 0x03};
  client.send_ping(opaque);
  transport.run(client, server, target.limits);
  for (const auto* ev : client.frames_of(FrameType::kPing)) {
    if (ev->frame.has_flag(h2::flags::kAck) &&
        ev->frame.as<h2::PingPayload>().opaque == opaque) {
      out.supported = true;
    }
  }
  if (!out.supported) return out;
  for (int i = 0; i < samples; ++i) {
    out.h2_ping_ms.push_back(target.path.sample_h2_ping(rng));
    out.icmp_ms.push_back(target.path.sample_icmp(rng));
    out.tcp_handshake_ms.push_back(target.path.sample_tcp_handshake(rng));
    out.http11_ms.push_back(target.path.sample_http11(rng));
  }
  return out;
}

}  // namespace h2r::core
