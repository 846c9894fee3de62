#include "core/session.h"

#include <set>
#include <string>
#include <utility>

#include "h2/constants.h"
#include "hpack/header_field.h"

namespace h2r::core {
namespace {

using h2::FrameType;
using h2::SettingId;

// Huge stream windows leave the connection window as the only DATA gate —
// the precondition of Algorithm 1 (probe_priority_mechanism's fresh
// connection plants the same value in its preface SETTINGS).
constexpr std::uint32_t kHugeWindow = 0x7FFF'FFFFu;

}  // namespace

ProbeSession::ProbeSession(const Target& target)
    : ProbeSession(target, Options(), nullptr) {}

ProbeSession::ProbeSession(const Target& target, Options options,
                           EndpointSlot* slot)
    : target_(target),
      options_(options),
      slot_(slot != nullptr ? slot : &own_) {}

void ProbeSession::ensure_baseline() {
  if (baseline_done_) return;
  baseline_done_ = true;

  lease_.emplace(slot_->lease(target_));
  transport_ = target_.make_transport();

  // The baseline conversation is the byte-identical prefix of the fresh
  // settings probe (request 1), the fresh push probe (request 1's
  // promises) and the fresh HPACK probe (all H requests, §III-E's
  // sequential table-warming), so one pass yields all three readouts.
  ClientConnection& client = lease_->client();
  const int requests = options_.expect_hpack ? options_.hpack_h : 1;
  baseline_streams_.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    baseline_streams_.push_back(client.send_request("/"));
    transport_->run(client, lease_->server(), target_.limits);
  }
  baseline_clean_ = client.alive() && !client.goaway_received();
  shared_ok_ = baseline_clean_;
}

SettingsProbeResult ProbeSession::settings() {
  ensure_baseline();
  // Every field below is pinned by the first exchange of the baseline —
  // the later requests can't rewrite the first SETTINGS frame, the
  // preemptive WINDOW_UPDATE tally, or request 1's response headers — so
  // the readout equals probe_settings() on a fresh connection even when
  // the connection degrades afterwards.
  SettingsProbeResult out;
  const ClientConnection& client = lease_->client();
  out.settings_entry_count = client.server_settings_entry_count();
  const auto& s = client.server_settings();
  out.header_table_size = s.raw(SettingId::kHeaderTableSize);
  out.max_concurrent_streams = s.raw(SettingId::kMaxConcurrentStreams);
  out.initial_window_size = s.raw(SettingId::kInitialWindowSize);
  out.max_frame_size = s.raw(SettingId::kMaxFrameSize);
  out.max_header_list_size = s.raw(SettingId::kMaxHeaderListSize);
  out.preemptive_window_bonus = client.preemptive_window_bonus();
  if (auto headers = client.response_headers(baseline_streams_.front())) {
    out.headers_received = true;
    out.server_header = std::string(hpack::find_header(*headers, "server"));
  }
  return out;
}

PriorityProbeResult ProbeSession::priority() {
  ensure_baseline();
  if (!shared_ok_) return probe_priority_mechanism(target_);
  ClientConnection& client = lease_->client();
  server::Http2Server& server = lease_->server();

  // Recreate the fresh probe's preface stance mid-connection: huge stream
  // windows (the SETTINGS frame rides in front of the drain request, as
  // the preface SETTINGS does) and no automatic replenishment. The
  // baseline left the connection send window at exactly the 65,535-octet
  // default — every octet it consumed was replenished by an automatic
  // WINDOW_UPDATE — which is the state Algorithm 1's drain step assumes.
  client.set_auto_connection_window_update(false);
  client.set_auto_stream_window_update(false);
  client.send_settings({{SettingId::kInitialWindowSize, kHugeWindow}});

  PriorityProbeResult out =
      run_priority_rounds(client, server, *transport_, target_.limits);

  if (client.alive() && !client.goaway_received()) {
    // Restore the default stance for the remaining shared phases.
    client.send_settings(
        {{SettingId::kInitialWindowSize, h2::kDefaultInitialWindowSize}});
    client.set_auto_connection_window_update(true);
    client.set_auto_stream_window_update(true);
    transport_->run(client, server, target_.limits);
  }
  if (!client.alive() || client.goaway_received()) shared_ok_ = false;

  if (!out.ran) {
    // The context preparation failed on the shared connection. A genuine
    // flow-control violation would fail identically on a fresh one, but a
    // shared-state artifact would not — re-measure fresh so the verdict
    // matches the sequential scan either way, and stop sharing.
    shared_ok_ = false;
    return probe_priority_mechanism(target_);
  }
  return out;
}

SelfDependencyProbeResult ProbeSession::self_dependency() {
  ensure_baseline();
  // Last of the connection-touching phases: the reaction may well be a
  // GOAWAY, and classify_update_reaction treats *any* received GOAWAY as
  // the reaction — so the guard also ensures no earlier phase's GOAWAY is
  // misattributed to this probe.
  if (!shared_ok_) return probe_self_dependency(target_);
  ClientConnection& client = lease_->client();
  client.set_auto_connection_window_update(true);
  client.set_auto_stream_window_update(false);  // keep the stream alive
  const std::uint32_t sid = client.send_request("/large/0");
  client.send_priority(sid, {.dependency = sid, .weight_field = 0});
  transport_->run(client, lease_->server(), target_.limits);
  SelfDependencyProbeResult out;
  out.reaction = classify_update_reaction(client, sid);
  client.set_auto_stream_window_update(true);
  if (!client.alive() || client.goaway_received()) shared_ok_ = false;
  return out;
}

PushProbeResult ProbeSession::push() {
  ensure_baseline();
  if (!baseline_clean_) return probe_server_push(target_);
  PushProbeResult out;
  const ClientConnection& client = lease_->client();
  // Only the promises born from the baseline's *first* request count: the
  // later baseline requests for the same page re-trigger the same pushes,
  // which a fresh probe (one request, one page) would never see.
  const std::uint32_t first = baseline_streams_.front();
  std::set<std::uint32_t> promised_by_first;
  for (const auto& ev : client.events()) {
    if (ev.frame.type() != FrameType::kPushPromise) continue;
    if (ev.frame.stream_id != first) continue;
    promised_by_first.insert(
        ev.frame.as<h2::PushPromisePayload>().promised_stream_id);
  }
  for (const auto& [promised_id, request] : client.pushes()) {
    if (promised_by_first.count(promised_id) == 0) continue;
    out.pushed_paths.emplace_back(hpack::find_header(request, ":path"));
    out.pushed_bytes += client.data_received(promised_id);
  }
  out.push_received = !out.pushed_paths.empty();
  return out;
}

HpackProbeResult ProbeSession::hpack_ratio() {
  ensure_baseline();
  if (!baseline_clean_ || !options_.expect_hpack) {
    return probe_hpack_ratio(target_, options_.hpack_h);
  }
  // Equation 1 over the baseline's response header sizes — computed with
  // the same loop as probe_hpack_ratio over what is, byte for byte, the
  // same conversation, so even the floating-point ratio is bit-identical.
  HpackProbeResult out;
  const ClientConnection& client = lease_->client();
  for (std::uint32_t sid : baseline_streams_) {
    const auto headers = client.frames_of(FrameType::kHeaders, sid);
    if (headers.empty()) return out;  // ran stays false
    out.header_sizes.push_back(headers.front()->header_block_size);
  }
  const double s1 = static_cast<double>(out.header_sizes.front());
  double sum = 0;
  for (std::size_t s : out.header_sizes) sum += static_cast<double>(s);
  out.ratio = sum / (s1 * static_cast<double>(options_.hpack_h));
  out.ran = true;
  return out;
}

}  // namespace h2r::core
