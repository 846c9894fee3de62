#include "server/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace h2r::server {
namespace {

using h2::ErrorCode;
using h2::Frame;
using h2::FrameType;

constexpr std::size_t kEmitQuantum = 16'384;  ///< per-pick DATA chunk cap
constexpr std::uint32_t kTinyWindowThreshold = 1'024;
constexpr std::size_t kSpareStreamNodes = 16;  ///< map nodes kept for reuse

/// Fixed virtual date — the engine never reads a wall clock.
constexpr const char* kHttpDate = "Mon, 04 Jul 2016 10:00:00 GMT";

hpack::EncoderOptions encoder_options(const ServerProfile& p) {
  return {.policy = p.response_indexing,
          .use_huffman = p.use_huffman,
          .table_capacity = h2::kDefaultHeaderTableSize};
}

hpack::DecoderOptions decoder_options(const ServerProfile& p) {
  hpack::DecoderOptions o;
  o.max_table_capacity = p.header_table_size;
  if (p.max_header_list_size) o.max_header_list_size = *p.max_header_list_size;
  return o;
}

}  // namespace

Http2Server::Http2Server(ServerProfile profile, Site site, StartMode mode,
                         trace::Recorder* recorder)
    : Http2Server(std::make_shared<const ServerProfile>(std::move(profile)),
                  std::make_shared<const Site>(std::move(site)), mode,
                  recorder) {}

Http2Server::Http2Server(std::shared_ptr<const ServerProfile> profile,
                         std::shared_ptr<const Site> site, StartMode mode,
                         trace::Recorder* recorder)
    : profile_(std::move(profile)),
      site_(std::move(site)),
      encoder_(encoder_options(*profile_)),
      decoder_(decoder_options(*profile_)),
      conn_send_window_(h2::kDefaultInitialWindowSize),
      conn_recv_window_(h2::kDefaultInitialWindowSize),
      start_mode_(mode),
      recorder_(recorder) {
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  if (start_mode_ == StartMode::kH2c) {
    // Nothing is sent until the HTTP/1.1 upgrade offer arrives (§3.2).
    return;
  }
  send_connection_preface();
}

void Http2Server::reset() { reset(profile_, site_, start_mode_, recorder_); }

void Http2Server::reset(std::shared_ptr<const ServerProfile> profile,
                        std::shared_ptr<const Site> site, StartMode mode,
                        trace::Recorder* recorder) {
  profile_ = std::move(profile);
  site_ = std::move(site);
  parser_.reset();
  encoder_.reset(encoder_options(*profile_));
  decoder_.reset(decoder_options(*profile_));
  our_settings_.clear();
  peer_settings_.clear();
  conn_send_window_ = h2::FlowWindow(h2::kDefaultInitialWindowSize);
  conn_recv_window_ = h2::FlowWindow(h2::kDefaultInitialWindowSize);
  // Keep a batch of the old connection's map nodes for the next one's
  // streams.
  while (!streams_.empty() && spare_nodes_.size() < kSpareStreamNodes) {
    if (spare_nodes_.capacity() == 0) spare_nodes_.reserve(kSpareStreamNodes);
    spare_nodes_.push_back(streams_.extract(streams_.begin()));
  }
  streams_.clear();
  swept_.clear();
  swept_send_peak_ = h2::FlowWindow(0);
  closed_since_sweep_ = 0;
  tree_.clear();
  preface_matched_ = 0;
  last_client_stream_id_ = 0;
  next_push_stream_id_ = 2;
  last_round_robin_ = 0;
  cookie_counter_ = 0;
  frames_received_ = 0;
  pinned_octets_ = 0;
  peak_pinned_octets_ = 0;
  last_progress_frame_ = 0;
  mitigation_level_ = MitigationLevel::kNone;
  suspected_attack_ = trace::AttackClass::kNone;
  level_started_frame_ = 0;
  last_violation_frame_ = 0;
  window_started_frame_ = 0;
  resets_in_window_ = 0;
  control_in_window_ = 0;
  priority_in_window_ = 0;
  slow_post_suspect_ = false;
  continuation_stream_.reset();
  continuation_fragment_.clear();
  continuation_end_stream_ = false;
  continuation_priority_.reset();
  BufferPool::local().release(out_.take());
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  dead_ = false;
  client_goaway_ = false;
  draining_ = false;
  start_mode_ = mode;
  upgraded_ = false;
  http1_buffer_.clear();
  recorder_ = recorder;
  if (start_mode_ != StartMode::kH2c) send_connection_preface();
}

void Http2Server::send_connection_preface() {
  // Server connection preface: a SETTINGS frame (§3.5), possibly followed by
  // the Nginx-style connection WINDOW_UPDATE (§V-C of the paper).
  // The frame is a member so its entry list keeps its storage across
  // connections (reset()).
  auto& entries = preface_settings_.as<h2::SettingsPayload>().entries;
  entries.clear();
  const auto announce = [&](h2::SettingId id, std::uint32_t value) {
    entries.emplace_back(static_cast<std::uint16_t>(id), value);
    (void)our_settings_.apply(static_cast<std::uint16_t>(id), value);
  };
  // Default-valued HEADER_TABLE_SIZE is omitted, like real deployments: the
  // paper infers "all servers use the default" from its absence (§V-C), and
  // the corpus "NULL" sites send an entirely empty SETTINGS frame.
  if (profile_->header_table_size != h2::kDefaultHeaderTableSize) {
    announce(h2::SettingId::kHeaderTableSize, profile_->header_table_size);
  }
  if (profile_->max_concurrent_streams) {
    announce(h2::SettingId::kMaxConcurrentStreams,
             *profile_->max_concurrent_streams);
  }
  if (profile_->initial_window_size) {
    announce(h2::SettingId::kInitialWindowSize, *profile_->initial_window_size);
  }
  if (profile_->max_frame_size) {
    announce(h2::SettingId::kMaxFrameSize, *profile_->max_frame_size);
  }
  if (profile_->max_header_list_size) {
    announce(h2::SettingId::kMaxHeaderListSize,
             *profile_->max_header_list_size);
  }
  // Inbound frame size limit is what *we* advertised, not what the peer did.
  parser_.set_max_frame_size(
      profile_->max_frame_size.value_or(h2::kDefaultMaxFrameSize));
  send_frame(preface_settings_);
  if (profile_->window_update_after_settings &&
      profile_->connection_window_bonus > 0) {
    (void)conn_recv_window_.expand(profile_->connection_window_bonus);
    send_frame(h2::make_window_update(0, profile_->connection_window_bonus));
  }
}

void Http2Server::shutdown() {
  if (dead_ || draining_) return;
  draining_ = true;
  send_frame(h2::make_goaway(last_client_stream_id_, ErrorCode::kNoError,
                             "shutting down"));
  pump();
  if (active_stream_count() == 0) dead_ = true;
}

void Http2Server::on_transport_close(const Status& status) {
  (void)status;
  // Death-path invariants. A fault can interrupt the connection at any
  // octet — mid-preface, mid-frame-header, mid-HPACK-block — but it must
  // never leave the engine with incoherent accounting: windows within the
  // RFC 7540 §6.9.1 bound and response cursors within their bodies. A
  // violation here means partial delivery tore an update in half, which
  // the frame reassembly layer is supposed to make impossible.
  assert(conn_send_window_.available() <= h2::kMaxWindowSize);
  assert(conn_recv_window_.available() <= h2::kMaxWindowSize);
  for (const auto& [id, s] : streams_) {
    (void)id;
    assert(s.body_offset <= s.body_size);
    assert(s.send_window.available() <= h2::kMaxWindowSize);
    assert(s.recv_window.available() <= h2::kMaxWindowSize);
  }
  // CONTINUATION reassembly may legitimately be cut mid-block, but only on
  // a stream the engine actually opened.
  assert(!continuation_stream_.has_value() ||
         *continuation_stream_ <= last_client_stream_id_ ||
         *continuation_stream_ >= 2);
  // The incremental pinned-octet counter must agree with the O(streams)
  // recomputation no matter where the fault cut the connection.
  assert(pinned_octets_ == pending_response_octets());
  dead_ = true;
}

void Http2Server::receive(std::span<const std::uint8_t> bytes) {
  if (dead_) return;

  // h2c bootstrap: buffer HTTP/1.1 text until the upgrade offer is complete.
  if (start_mode_ == StartMode::kH2c && !upgraded_) {
    http1_buffer_.append(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
    const auto end = http1_buffer_.find("\r\n\r\n");
    if (end == std::string::npos) return;  // request incomplete
    const std::string request = http1_buffer_.substr(0, end + 4);
    const std::string leftover = http1_buffer_.substr(end + 4);
    http1_buffer_.clear();

    const auto result =
        net::process_upgrade_request(request, profile_->supports_h2c);
    if (!result.switched) {
      // Declined: answer over HTTP/1.1 and close (this engine is h2-only).
      const std::string response = result.status_line +
                                   "\r\nContent-Length: 0\r\nConnection: "
                                   "close\r\n\r\n";
      out_.write_string(response);
      dead_ = true;
      return;
    }
    const std::string switching =
        result.status_line + "\r\nConnection: Upgrade\r\nUpgrade: h2c\r\n\r\n";
    out_.write_string(switching);
    upgraded_ = true;
    peer_settings_ = result.client_settings;  // HTTP2-Settings (§3.2.1)
    send_connection_preface();

    // §3.2: the upgraded request becomes stream 1, half-closed (remote).
    last_client_stream_id_ = 1;
    Stream& upgraded = open_stream(1, peer_settings_.initial_window_size(),
                                   our_settings_.initial_window_size());
    (void)upgraded.sm.on_recv_headers(/*end_stream=*/true);
    hpack::assign_fields(upgraded.request_headers,
                         {{":method", "GET"},
                          {":scheme", "http"},
                          {":authority", site_->host()},
                          {":path", "/"}});
    if (scheduler_uses_tree(profile_->scheduler)) {
      (void)tree_.declare_default(1);
    }
    start_response(upgraded);
    if (!dead_) maybe_push(upgraded);
    pump();
    if (leftover.empty()) return;
    // The client may have optimistically begun the h2 preface.
    receive({reinterpret_cast<const std::uint8_t*>(leftover.data()),
             leftover.size()});
    return;
  }

  // Consume the client connection preface before framing starts (§3.5).
  std::size_t offset = 0;
  while (preface_matched_ < h2::kClientPreface.size() && offset < bytes.size()) {
    if (bytes[offset] !=
        static_cast<std::uint8_t>(h2::kClientPreface[preface_matched_])) {
      connection_error(ErrorCode::kProtocolError, "bad connection preface");
      return;
    }
    ++preface_matched_;
    ++offset;
  }
  auto frames = parser_.parse_in_place(bytes.subspan(offset));
  while (auto next = frames.next()) {
    if (!next->ok()) {
      if (recorder_ != nullptr) {
        recorder_->record({.dir = trace::Direction::kClientToServer,
                           .kind = trace::EventKind::kParseError,
                           .note = next->status().message()});
      }
      const auto code = next->status().code() == StatusCode::kFrameSizeError
                            ? ErrorCode::kFrameSizeError
                            : ErrorCode::kProtocolError;
      connection_error(code, next->status().message());
      return;
    }
    ++frames_received_;
    if (record_received_ && recorder_ != nullptr) {
      recorder_->record_frame(
          trace::Direction::kClientToServer, next->value(),
          h2::kFrameHeaderSize + next->value().payload_wire_octets);
    }
    if (profile_->mitigation.enabled) mitigation_on_frame(next->value());
    on_frame(next->value());
    if (dead_) return;
    if (profile_->mitigation.enabled) mitigation_check();
    if (dead_) return;
    maybe_sweep();
  }
  pump();
}

void Http2Server::release_buffers() {
  parser_.release_buffer();
  if (out_.size() == 0) BufferPool::local().release(out_.take());
}

Bytes Http2Server::take_output() {
  Bytes drained = out_.take();
  // Re-arm the writer with a recycled buffer so the next round of frames
  // appends into already-allocated storage; pump() trades it for a larger
  // one when a DATA burst needs the room.
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  return drained;
}

std::size_t Http2Server::pending_response_octets() const {
  std::size_t total = 0;
  for (const auto& [id, s] : streams_) {
    if (s.response_ready) total += s.body_size - s.body_offset;
  }
  return total;
}

std::size_t Http2Server::active_stream_count() const {
  std::size_t n = 0;
  for (const auto& [id, s] : streams_) {
    if (!s.sm.closed() && !s.is_push) ++n;
  }
  return n;
}

// --------------------------------------------------------------- dispatch

void Http2Server::on_frame(const h2::FrameView& frame) {
  // A header block in flight admits only CONTINUATION on the same stream.
  if (continuation_stream_ && frame.type() != FrameType::kContinuation) {
    connection_error(ErrorCode::kProtocolError,
                     "frame interleaved into header block");
    return;
  }
  switch (frame.type()) {
    case FrameType::kData:
      return handle_data(frame);
    case FrameType::kHeaders:
      return handle_headers(frame);
    case FrameType::kPriority:
      return handle_priority(frame);
    case FrameType::kRstStream:
      return handle_rst_stream(frame);
    case FrameType::kSettings:
      return handle_settings(frame);
    case FrameType::kPushPromise:
      return connection_error(ErrorCode::kProtocolError,
                              "client attempted PUSH_PROMISE");
    case FrameType::kPing:
      return handle_ping(frame);
    case FrameType::kGoaway:
      return handle_goaway(frame);
    case FrameType::kWindowUpdate:
      return handle_window_update(frame);
    case FrameType::kContinuation:
      return handle_continuation(frame);
    default:
      return;  // §4.1: unknown frame types are ignored
  }
}

void Http2Server::handle_headers(const h2::FrameView& frame) {
  if (frame.stream_id == 0) {
    return connection_error(ErrorCode::kProtocolError, "HEADERS on stream 0");
  }
  if (frame.stream_id % 2 == 0) {
    return connection_error(ErrorCode::kProtocolError,
                            "client HEADERS on even stream id");
  }
  if (!frame.has_flag(h2::flags::kEndHeaders)) {
    continuation_stream_ = frame.stream_id;
    continuation_fragment_.assign(frame.body.begin(), frame.body.end());
    continuation_end_stream_ = frame.has_flag(h2::flags::kEndStream);
    continuation_priority_ = frame.priority;
    return;
  }
  complete_headers(frame.stream_id, frame.body,
                   frame.has_flag(h2::flags::kEndStream), frame.priority);
}

void Http2Server::handle_continuation(const h2::FrameView& frame) {
  if (!continuation_stream_ || *continuation_stream_ != frame.stream_id) {
    return connection_error(ErrorCode::kProtocolError,
                            "unexpected CONTINUATION");
  }
  continuation_fragment_.insert(continuation_fragment_.end(),
                                frame.body.begin(), frame.body.end());
  if (!frame.has_flag(h2::flags::kEndHeaders)) return;
  const std::uint32_t id = *continuation_stream_;
  continuation_stream_.reset();
  complete_headers(id, continuation_fragment_, continuation_end_stream_,
                   continuation_priority_);
  continuation_fragment_.clear();
  continuation_priority_.reset();
}

void Http2Server::complete_headers(std::uint32_t stream_id,
                                   std::span<const std::uint8_t> fragment,
                                   bool end_stream,
                                   std::optional<h2::PriorityInfo> priority) {
  // Decoded into the reused scratch list (churn traced on client's encoder).
  if (Status status = decoder_.decode_into(fragment, request_scratch_);
      !status.ok()) {
    if (status.code() == StatusCode::kRefused) {
      // Header list larger than we accept: stream-scoped refusal.
      return stream_error(stream_id, ErrorCode::kRefusedStream);
    }
    return connection_error(ErrorCode::kCompressionError, status.message());
  }

  auto it = streams_.find(stream_id);
  if (it != streams_.end()) {
    // Trailers on an existing stream (§8.1): they update the lifecycle and,
    // when they end the request, trigger the response.
    if (!it->second.sm.on_recv_headers(end_stream).ok()) {
      return connection_error(ErrorCode::kProtocolError,
                              "HEADERS in invalid stream state");
    }
    if (end_stream && !it->second.response_ready) {
      start_response(it->second);
      if (!dead_) maybe_push(it->second);
    }
    return;
  }
  if (find_swept(stream_id) != swept_.end()) {
    // Swept means closed: the trailers check above would have failed too.
    return connection_error(ErrorCode::kProtocolError,
                            "HEADERS in invalid stream state");
  }

  if (stream_id <= last_client_stream_id_ || client_goaway_) {
    return connection_error(ErrorCode::kProtocolError,
                            "HEADERS reuses an old stream id");
  }
  last_client_stream_id_ = stream_id;

  if (draining_) {
    // §6.8: streams above the GOAWAY watermark are refused, retryable.
    open_refused(stream_id, end_stream);
    return stream_error(stream_id, ErrorCode::kRefusedStream);
  }

  if (throttled()) {
    // Mitigation throttle: the same refusal surface as draining, but coded
    // ENHANCE_YOUR_CALM so clients (and the trace annotator) can tell
    // mitigation from protocol errors. Amplification stops — one cheap RST
    // per attacker HEADERS, no stream state, no response pinned.
    open_refused(stream_id, end_stream);
    return stream_error(stream_id, ErrorCode::kEnhanceYourCalm);
  }

  // Enforce our advertised SETTINGS_MAX_CONCURRENT_STREAMS: the §V-A probe
  // sets it to 0 or 1 and expects RST_STREAM(REFUSED_STREAM) on overflow.
  if (profile_->max_concurrent_streams &&
      active_stream_count() >= *profile_->max_concurrent_streams) {
    open_refused(stream_id, end_stream);
    return stream_error(stream_id, ErrorCode::kRefusedStream);
  }

  h2::StreamStateMachine sm(stream_id);
  if (!sm.on_recv_headers(end_stream).ok()) {
    return connection_error(ErrorCode::kProtocolError, "bad HEADERS state");
  }
  Stream& opened = open_stream(stream_id, peer_settings_.initial_window_size(),
                               our_settings_.initial_window_size());
  opened.sm = sm;
  // The decoded list moves in; the node's old list, storage and all, is
  // the next decode's scratch.
  std::swap(opened.request_headers, request_scratch_);
  opened.opened_at_frame = frames_received_;

  // Request body still to come: make sure the client can actually send it.
  // Servers announcing window 0 (the Nginx idiom) re-open per-stream
  // windows on demand, exactly like they re-open the connection window.
  if (!end_stream && profile_->window_update_after_settings &&
      our_settings_.initial_window_size() == 0) {
    const std::uint32_t grant = h2::kDefaultInitialWindowSize;
    (void)opened.recv_window.expand(grant);
    send_frame(h2::make_window_update(stream_id, grant));
  }

  if (priority) {
    apply_priority_signal(stream_id, *priority, /*from_headers=*/true);
    if (dead_) return;
  } else if (scheduler_uses_tree(profile_->scheduler)) {
    (void)tree_.declare_default(stream_id);
  }

  // Requests with a body (POST uploads) are answered once the body ends
  // (handle_data); header-only requests are answered immediately — unless
  // the priority reaction above already reset the stream (a self-dependency
  // under ErrorReaction::kRstStream): a reset stream gets no response and
  // no pushes, so nothing stays pinned on it.
  if (end_stream && !opened.sm.closed()) {
    start_response(opened);
    if (!dead_) maybe_push(opened);
  }
}

void Http2Server::apply_priority_signal(std::uint32_t stream_id,
                                        const h2::PriorityInfo& info,
                                        bool from_headers) {
  if (info.dependency == stream_id) {
    // Self-dependency: RFC says stream error; real servers disagree
    // (Table III row "Self-dependent Stream").
    return react(profile_->self_dependency, stream_id, ErrorCode::kProtocolError,
                 ErrorCode::kProtocolError, "stream cannot depend on itself");
  }
  if (!scheduler_uses_tree(profile_->scheduler)) {
    return;  // priority is advisory; these servers simply ignore it
  }
  const Status applied = from_headers ? tree_.declare(stream_id, info)
                                      : tree_.reprioritize(stream_id, info);
  if (!applied.ok()) {
    react(profile_->self_dependency, stream_id, ErrorCode::kProtocolError,
          ErrorCode::kProtocolError, applied.message());
  }
}

void Http2Server::handle_data(const h2::FrameView& frame) {
  const auto n = static_cast<std::int64_t>(frame.body.size());
  const bool end_stream = frame.has_flag(h2::flags::kEndStream);
  if (!conn_recv_window_.consume(n).ok()) {
    return connection_error(ErrorCode::kFlowControlError,
                            "client DATA overruns connection window");
  }
  auto it = streams_.find(frame.stream_id);
  if (it == streams_.end()) {
    auto swept = find_swept(frame.stream_id);
    if (swept == swept_.end()) {
      return connection_error(ErrorCode::kProtocolError, "DATA on idle stream");
    }
    // As while tracked: charged against the stream window, then refused.
    if (n > swept->recv_window) {
      return stream_error(frame.stream_id, ErrorCode::kFlowControlError);
    }
    if (n > 0) {
      isolate_swept(swept, frame.stream_id)->recv_window -=
          static_cast<std::uint32_t>(n);
    }
    return stream_error(frame.stream_id, ErrorCode::kStreamClosed);
  }
  Stream& stream = it->second;
  if (!stream.recv_window.consume(n).ok()) {
    return stream_error(frame.stream_id, ErrorCode::kFlowControlError);
  }
  if (!stream.sm.on_recv_data(end_stream).ok()) {
    return stream_error(frame.stream_id, ErrorCode::kStreamClosed);
  }
  stream.uploaded_bytes += frame.body.size();
  // Replenish both windows so well-behaved uploads never stall.
  if (n > 0) {
    send_frame(h2::make_window_update(0, static_cast<std::uint32_t>(n)));
    (void)conn_recv_window_.expand(static_cast<std::uint32_t>(n));
    if (!end_stream) {
      (void)stream.recv_window.expand(static_cast<std::uint32_t>(n));
      send_frame(h2::make_window_update(frame.stream_id,
                                        static_cast<std::uint32_t>(n)));
    }
  }
  // A request whose body just completed is ready to answer now.
  if (end_stream && !stream.response_ready) {
    start_response(stream);
    if (!dead_) maybe_push(stream);
  }
}

void Http2Server::handle_priority(const h2::FrameView& frame) {
  if (frame.stream_id == 0) {
    return connection_error(ErrorCode::kProtocolError, "PRIORITY on stream 0");
  }
  // Under mitigation throttle PRIORITY is advisory noise: tree operations
  // (the CPU the churn attack burns) are suppressed.
  if (throttled()) return;
  apply_priority_signal(frame.stream_id, *frame.priority,
                        /*from_headers=*/false);
}

void Http2Server::handle_rst_stream(const h2::FrameView& frame) {
  if (frame.stream_id == 0) {
    return connection_error(ErrorCode::kProtocolError, "RST_STREAM on stream 0");
  }
  auto it = streams_.find(frame.stream_id);
  if (it != streams_.end()) {
    (void)it->second.sm.on_recv_rst();
  } else if (find_swept(frame.stream_id) == swept_.end()) {
    return connection_error(ErrorCode::kProtocolError,
                            "RST_STREAM on idle stream");
  }
  close_stream(frame.stream_id);
}

void Http2Server::handle_settings(const h2::FrameView& frame) {
  if (frame.has_flag(h2::flags::kAck)) return;
  const std::uint32_t old_iws = peer_settings_.initial_window_size();
  const Status applied = peer_settings_.apply_frame(frame);
  if (!applied.ok()) {
    const auto code = applied.code() == StatusCode::kFlowControlError
                          ? ErrorCode::kFlowControlError
                          : ErrorCode::kProtocolError;
    return connection_error(code, applied.message());
  }
  // §6.9.2: an INITIAL_WINDOW_SIZE change retroactively adjusts every
  // stream window by the delta.
  const std::uint32_t new_iws = peer_settings_.initial_window_size();
  if (new_iws != old_iws) {
    const auto overflow = [this] {
      connection_error(ErrorCode::kFlowControlError,
                       "SETTINGS window adjustment overflow");
    };
    for (auto& [id, s] : streams_) {
      if (!s.send_window.adjust_initial(old_iws, new_iws).ok()) {
        return overflow();
      }
    }
    // Every swept window moves by the same delta, so their peak decides.
    if (!swept_.empty() &&
        !swept_send_peak_.adjust_initial(old_iws, new_iws).ok()) {
      return overflow();
    }
  }
  // Our dynamic table may not exceed what the client is willing to hold.
  const std::uint32_t table_cap = std::min(peer_settings_.header_table_size(),
                                           h2::kDefaultHeaderTableSize);
  if (table_cap != encoder_.table().capacity()) {
    encoder_.set_table_capacity(table_cap);
  }
  if (recorder_ != nullptr) {
    for (std::size_t i = 0; i < frame.settings_entry_count(); ++i) {
      const auto [id, value] = frame.setting_at(i);
      recorder_->record({.dir = trace::Direction::kClientToServer,
                         .kind = trace::EventKind::kSettingsApplied,
                         .detail_a = id,
                         .detail_b = value});
    }
  }
  // Settings are always *applied* (ignoring them would desynchronize flow
  // control), but under throttle the ACK — the flood's amplification — is
  // withheld.
  if (throttled()) return;
  send_frame(h2::make_settings_ack());
}

void Http2Server::handle_ping(const h2::FrameView& frame) {
  if (frame.stream_id != 0) {
    return connection_error(ErrorCode::kProtocolError, "PING on a stream");
  }
  if (frame.has_flag(h2::flags::kAck)) return;
  // Under mitigation throttle PING replies are dropped: the reflection is
  // exactly what a control-frame flood amplifies.
  if (throttled()) return;
  // §6.7: respond with an identical payload, ACK set, at high priority —
  // PINGs bypass the response scheduler entirely.
  std::array<std::uint8_t, 8> opaque{};
  std::copy_n(frame.body.begin(), 8, opaque.begin());
  send_frame(h2::make_ping(opaque, /*ack=*/true));
}

void Http2Server::handle_goaway(const h2::FrameView& frame) {
  (void)frame;
  client_goaway_ = true;
}

void Http2Server::handle_window_update(const h2::FrameView& frame) {
  const std::uint32_t increment = frame.increment;
  const bool connection_scope = frame.stream_id == 0;

  if (increment == 0) {
    // The paper's zero-window-update probe (§III-B3). RFC: stream error on
    // stream scope, connection error on connection scope — but Table III
    // shows three distinct behaviours in the wild.
    if (connection_scope) {
      return react(profile_->zero_window_update_connection, 0,
                   ErrorCode::kProtocolError, ErrorCode::kProtocolError,
                   "window update shouldn't be zero");
    }
    return react(profile_->zero_window_update_stream, frame.stream_id,
                 ErrorCode::kProtocolError, ErrorCode::kProtocolError,
                 "window update shouldn't be zero");
  }

  if (connection_scope) {
    if (!conn_send_window_.expand(increment).ok()) {
      // §6.9.1 overflow past 2^31-1 (§III-B4 probe).
      if (profile_->large_window_update_connection == ErrorReaction::kIgnore) {
        conn_send_window_.reset_to(h2::kMaxWindowSize);  // saturate silently
        return;
      }
      return react(profile_->large_window_update_connection, 0,
                   ErrorCode::kFlowControlError, ErrorCode::kFlowControlError,
                   "connection flow-control window overflow");
    }
    return;
  }

  auto it = streams_.find(frame.stream_id);
  if (it == streams_.end() || it->second.sm.closed()) {
    return;  // WINDOW_UPDATE may race with stream close; ignore (§5.1)
  }
  if (!it->second.send_window.expand(increment).ok()) {
    if (profile_->large_window_update_stream == ErrorReaction::kIgnore) {
      it->second.send_window.reset_to(h2::kMaxWindowSize);
      return;
    }
    return react(profile_->large_window_update_stream, frame.stream_id,
                 ErrorCode::kFlowControlError, ErrorCode::kFlowControlError,
                 "stream flow-control window overflow");
  }
}

// --------------------------------------------------------- request handling

void Http2Server::start_response(Stream& stream) {
  const std::string_view path =
      hpack::find_header(stream.request_headers, ":path");
  const std::string_view method =
      hpack::find_header(stream.request_headers, ":method");
  stream.resource = site_->find(path);

  if (method == "POST") {
    // Upload sink: acknowledge with a body sized like the upload, so tests
    // can verify the count end to end. Never cacheable: x-received-bytes
    // varies per upload.
    hpack::HeaderList headers;
    headers.reserve(6);
    headers.emplace_back(":status", "200");
    headers.emplace_back("server", profile_->server_header);
    headers.emplace_back("date", kHttpDate);
    headers.emplace_back("content-type", "text/plain");
    headers.emplace_back("x-received-bytes",
                         std::to_string(stream.uploaded_bytes));
    stream.body_size = std::to_string(stream.uploaded_bytes).size();
    headers.emplace_back("content-length", std::to_string(stream.body_size));
    stream.resource = nullptr;
    stream.response_headers = std::move(headers);
    stream.upload_response = true;
    stream.response_ready = true;
    pin_octets(stream.body_size);
    return;
  }
  stream.body_size =
      stream.resource != nullptr ? stream.resource->size : std::size_t{180};
  // The header list is a pure function of (profile, site, resource) and the
  // stream's cookie serial; building it is deferred to first encode, where
  // the shard's block cache usually supplies a prebuilt byte block instead.
  if (!site_->cookie_churn()) {
    stream.cacheable_response = true;
  } else if (cookie_counter_++ > 0) {
    // Cookie churn (§V-G): *later* responses grow a set-cookie header the
    // first response lacked, making S1 < Si and pushing the measured
    // compression ratio above 1 (the sites the paper filters out of Figs
    // 4/5). Serials follow request order, whenever the block is encoded.
    stream.cookie_serial = cookie_counter_;
  }
  stream.response_ready = true;
  pin_octets(stream.body_size);
}

void Http2Server::build_response_headers(const Stream& stream,
                                         hpack::HeaderList& headers) {
  // Assigned field by field into whatever @p headers already holds, so a
  // reused list keeps its string buffers.
  std::size_t n = 0;
  const auto put = [&](std::string_view name, std::string_view value) {
    if (n == headers.size()) headers.emplace_back();
    hpack::HeaderField& f = headers[n++];
    f.name.assign(name);
    f.value.assign(value);
    f.never_indexed = false;
  };
  put(":status", stream.resource != nullptr ? "200" : "404");
  put("server", profile_->server_header);
  put("date", kHttpDate);
  put("content-type", stream.resource != nullptr
                          ? std::string_view(stream.resource->content_type)
                          : std::string_view("text/html"));
  put("content-length", std::to_string(stream.body_size));
  for (const auto& extra : site_->extra_headers()) {
    put(extra.name, extra.value);
    headers[n - 1].never_indexed = extra.never_indexed;
  }
  if (stream.cookie_serial != 0) {
    char cookie[48];
    const int len = std::snprintf(
        cookie, sizeof cookie, "session=%llu; Path=/; HttpOnly",
        static_cast<unsigned long long>(stream.cookie_serial));
    put("set-cookie",
        std::string_view(cookie, static_cast<std::size_t>(len)));
  }
  headers.resize(n);
}

Bytes Http2Server::response_block(Stream& stream) {
  if (stream.upload_response) {
    return encode_block(stream.response_headers);
  }
  // While this engine's encoder is pristine it emits exactly the bytes any
  // sibling pristine engine emitted, so even the first response of a fresh
  // connection can reuse a block another connection on this shard built.
  const bool pristine = encoder_.pristine();
  const bool cached =
      stream.cacheable_response && shared_block_cache_ != nullptr;
  if (cached) {
    if (pristine) {
      for (const auto& entry : shared_block_cache_->entries) {
        if (entry.resource == stream.resource) {
          ++shared_block_cache_->hits;
          Bytes block = BufferPool::local().acquire(entry.block.size());
          block.assign(entry.block.begin(), entry.block.end());
          return block;
        }
      }
    }
    ++shared_block_cache_->misses;
  }
  build_response_headers(stream, response_scratch_);
  Bytes block = encode_block(response_scratch_);
  // Store only encodes that left the encoder pristine: no table inserts or
  // evictions (the first encode under an aggressive indexing policy
  // inserts, and its encoder never matches again).
  if (cached && pristine && encoder_.pristine()) {
    shared_block_cache_->entries.push_back({stream.resource, block});
  }
  return block;
}

void Http2Server::maybe_push(Stream& parent) {
  if (!profile_->supports_push || !peer_settings_.enable_push()) return;
  if (parent.is_push) return;
  const std::string path{hpack::find_header(parent.request_headers, ":path")};
  const auto* push_paths = site_->push_list(path);
  if (push_paths == nullptr) return;

  for (const auto& push_path : *push_paths) {
    // Respect the client's concurrency cap on *our* streams (§6.5.2 — the
    // paper notes MAX_CONCURRENT_STREAMS=0 disables push entirely).
    if (auto cap = peer_settings_.max_concurrent_streams()) {
      std::size_t pushes_active = 0;
      for (const auto& [id, s] : streams_) {
        if (s.is_push && !s.sm.closed()) ++pushes_active;
      }
      if (pushes_active >= *cap) return;
    }
    const Resource* resource = site_->find(push_path);
    if (resource == nullptr) continue;

    const std::uint32_t promised = next_push_stream_id_;
    next_push_stream_id_ += 2;

    Stream& pushed =
        open_stream(promised, peer_settings_.initial_window_size(),
                    our_settings_.initial_window_size());
    hpack::assign_fields(pushed.request_headers,
                         {{":method", "GET"},
                          {":scheme", "https"},
                          {":authority", site_->host()},
                          {":path", push_path}});
    h2::Frame promise = h2::make_push_promise(
        parent.sm.id(), promised, encode_block(pushed.request_headers));
    send_frame(promise);
    BufferPool::local().release(
        std::move(promise.as<h2::PushPromisePayload>().fragment));

    (void)pushed.sm.on_send_push_promise();
    pushed.is_push = true;
    if (scheduler_uses_tree(profile_->scheduler)) {
      // Pushed responses default to dependents of their parent (§5.3.5).
      (void)tree_.declare(promised, {.dependency = parent.sm.id(),
                                     .weight_field = h2::kDefaultWeight - 1});
    }
    start_response(pushed);
  }
}

// ----------------------------------------------------------------- pumping

bool Http2Server::tiny_window_mode() const {
  return peer_settings_.initial_window_size() < kTinyWindowThreshold;
}

bool Http2Server::stream_eligible(const Stream& s) const {
  if (s.sm.closed() || !s.response_ready || s.stalled) return false;
  if (!s.sm.can_send_data() && !(s.is_push && !s.headers_sent)) return false;

  if (!s.headers_sent) {
    if (profile_->flow_control_on_headers && s.send_window.available() <= 0) {
      return false;  // the LiteSpeed HEADERS deviation (Table III)
    }
    if (profile_->headers_blocked_by_conn_window &&
        conn_send_window_.available() <= 0) {
      return false;  // §V-D2 wild deviation
    }
    return true;
  }

  const std::size_t remaining = s.body_size - s.body_offset;
  if (remaining == 0) return false;
  if (tiny_window_mode() &&
      profile_->small_window_behavior == SmallWindowBehavior::kZeroLengthData) {
    return !s.zero_length_emitted;
  }
  return s.send_window.available() > 0 && conn_send_window_.available() > 0;
}

std::uint32_t Http2Server::pick_round_robin(bool fcfs) {
  // FCFS: lowest eligible id. Round robin: next eligible id after the last
  // one served, cycling.
  std::uint32_t first_eligible = 0;
  std::uint32_t next_after = 0;
  for (const auto& [id, s] : streams_) {
    if (!stream_eligible(s)) continue;
    if (first_eligible == 0) first_eligible = id;
    if (next_after == 0 && id > last_round_robin_) next_after = id;
  }
  if (fcfs) return first_eligible;
  return next_after != 0 ? next_after : first_eligible;
}

void Http2Server::pump() {
  if (dead_) return;
  // Presize the output for the DATA burst this pump may emit — at most
  // the octets still owed, within the connection window, one frame header
  // per quantum — so a round's frames land in one buffer instead of
  // regrowing it chunk by chunk.
  const std::size_t burst = std::min<std::size_t>(
      pinned_octets_, static_cast<std::size_t>(std::max<std::int64_t>(
                          0, conn_send_window_.available())));
  if (burst > 0) {
    reserve_output(burst + (burst / kEmitQuantum + 1) * h2::kFrameHeaderSize);
  }
  for (;;) {
    std::uint32_t id = 0;
    const auto eligible = [this](std::uint32_t sid) {
      auto it = streams_.find(sid);
      return it != streams_.end() && stream_eligible(it->second);
    };
    switch (profile_->scheduler) {
      case SchedulerKind::kPriorityTree:
        id = tree_.next_stream(eligible);
        break;
      case SchedulerKind::kFairShare:
        id = tree_.next_stream_fair(eligible);
        break;
      case SchedulerKind::kPriorityStart: {
        // First DATA chunk (and HEADERS) in dependency order, then plain
        // round-robin.
        id = tree_.next_stream([this, &eligible](std::uint32_t sid) {
          if (!eligible(sid)) return false;
          const Stream& s = streams_.at(sid);
          return !s.headers_sent || s.body_offset == 0;
        });
        if (id == 0) id = pick_round_robin(/*fcfs=*/false);
        break;
      }
      case SchedulerKind::kRoundRobin:
        id = pick_round_robin(/*fcfs=*/false);
        break;
      case SchedulerKind::kFcfs:
        id = pick_round_robin(/*fcfs=*/true);
        break;
    }
    if (id == 0) {
      // Nothing schedulable: any stream still holding undelivered work is
      // blocked on flow control — mark it for the wiretap.
      note_window_stalls();
      return;
    }
    serve_one(id);
    if (dead_) return;
    maybe_sweep();
  }
}

void Http2Server::serve_one(std::uint32_t stream_id) {
  Stream& s = streams_.at(stream_id);
  last_round_robin_ = stream_id;
  note_window_resume(s);  // a previously stalled stream is moving again

  if (!s.headers_sent) {
    // Engage the stall deviation before anything is emitted: under a tiny
    // window LiteSpeed-profile servers go silent for the whole response.
    if (tiny_window_mode() &&
        profile_->small_window_behavior == SmallWindowBehavior::kStall) {
      s.stalled = true;
      return;
    }
    const bool end_stream = s.body_size == 0;
    send_header_block(stream_id, response_block(s), end_stream);
    (void)s.sm.on_send_headers(end_stream);
    s.headers_sent = true;
    if (end_stream) close_stream(stream_id);
    return;
  }

  const std::size_t remaining = s.body_size - s.body_offset;

  if (tiny_window_mode() &&
      profile_->small_window_behavior == SmallWindowBehavior::kZeroLengthData) {
    // Observed wild behaviour (§V-D1): a zero-length DATA frame ending the
    // stream instead of Sframe-sized chunks.
    send_frame(h2::make_data(stream_id, {}, /*end_stream=*/true));
    s.zero_length_emitted = true;
    (void)s.sm.on_send_data(true);
    close_stream(stream_id);
    return;
  }

  std::size_t chunk = std::min<std::size_t>(remaining, kEmitQuantum);
  chunk = std::min<std::size_t>(chunk, peer_settings_.max_frame_size());
  chunk = std::min<std::size_t>(
      chunk, static_cast<std::size_t>(
                 std::max<std::int64_t>(0, s.send_window.available())));
  chunk = std::min<std::size_t>(
      chunk, static_cast<std::size_t>(
                 std::max<std::int64_t>(0, conn_send_window_.available())));
  if (chunk == 0) return;  // raced with eligibility; nothing to do

  const std::size_t offset = s.body_offset;
  s.body_offset += chunk;
  unpin_octets(chunk);
  last_progress_frame_ = frames_received_;  // delivery = slow-read progress
  (void)s.send_window.consume(static_cast<std::int64_t>(chunk));
  (void)conn_send_window_.consume(static_cast<std::int64_t>(chunk));
  if (scheduler_uses_tree(profile_->scheduler)) {
    tree_.account(stream_id, chunk);
  }

  const bool end_stream = s.body_offset == s.body_size;
  send_data_direct(stream_id, s.resource, offset, chunk, end_stream);
  (void)s.sm.on_send_data(end_stream);
  if (end_stream) close_stream(stream_id);
}

void Http2Server::reserve_output(std::size_t n) {
  if (out_.capacity() - out_.size() >= n) return;
  // Trade the writer's buffer for a pooled one with the room, rather than
  // regrowing it while bigger buffers sit idle in the pool.
  Bytes bigger = BufferPool::local().acquire(out_.size() + n);
  Bytes current = out_.take();
  bigger.insert(bigger.end(), current.begin(), current.end());
  BufferPool::local().release(std::move(current));
  out_ = ByteWriter(std::move(bigger));
}

void Http2Server::send_data_direct(std::uint32_t stream_id,
                                   const Resource* resource,
                                   std::size_t offset, std::size_t chunk,
                                   bool end_stream) {
  const std::uint8_t flagbits = end_stream ? h2::flags::kEndStream : 0;
  h2::write_frame_header(out_, chunk, FrameType::kData, flagbits, stream_id);
  if (resource != nullptr) {
    resource_body_into(out_, *resource, offset, chunk);
  } else {
    out_.write_fill(chunk, static_cast<std::uint8_t>('.'));
  }
  if (recorder_ != nullptr) {
    recorder_->record(
        {.dir = trace::Direction::kServerToClient,
         .kind = trace::EventKind::kFrame,
         .stream_id = stream_id,
         .frame_type = static_cast<std::uint8_t>(FrameType::kData),
         .flags = flagbits,
         .wire_length = static_cast<std::uint32_t>(h2::kFrameHeaderSize + chunk),
         .detail_a = static_cast<std::uint32_t>(chunk)});
  }
}

// ---------------------------------------------------------------- plumbing

void Http2Server::send_header_block(std::uint32_t stream_id, Bytes block,
                                    bool end_stream) {
  // §4.3: a header block larger than the peer's SETTINGS_MAX_FRAME_SIZE is
  // split into HEADERS + CONTINUATION frames; END_HEADERS rides the last.
  const std::size_t limit = peer_settings_.max_frame_size();
  if (block.size() <= limit) {
    h2::Frame frame = h2::make_headers(stream_id, std::move(block), end_stream);
    send_frame(frame);
    BufferPool::local().release(
        std::move(frame.as<h2::HeadersPayload>().fragment));
    return;
  }
  Bytes first(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(limit));
  send_frame(h2::make_headers(stream_id, std::move(first), end_stream,
                              /*end_headers=*/false));
  std::size_t offset = limit;
  while (offset < block.size()) {
    const std::size_t n = std::min(limit, block.size() - offset);
    const bool last = offset + n == block.size();
    send_frame(h2::make_continuation(
        stream_id,
        Bytes(block.begin() + static_cast<std::ptrdiff_t>(offset),
              block.begin() + static_cast<std::ptrdiff_t>(offset + n)),
        last));
    offset += n;
  }
}

void Http2Server::send_frame(const Frame& frame) {
  const std::size_t wire = h2::serialize_frame_into(out_, frame);
  if (recorder_ != nullptr) {
    recorder_->record_frame(trace::Direction::kServerToClient, frame, wire);
  }
}

Bytes Http2Server::encode_block(const hpack::HeaderList& headers) {
  const std::uint64_t ins = encoder_.table().insert_count();
  const std::uint64_t ev = encoder_.table().eviction_count();
  Bytes block = encoder_.encode(headers);
  note_hpack_delta(encoder_.table().insert_count() - ins,
                   encoder_.table().eviction_count() - ev);
  return block;
}

void Http2Server::note_hpack_delta(std::uint64_t inserts,
                                   std::uint64_t evictions) {
  if (recorder_ == nullptr) return;
  if (inserts != 0) {
    recorder_->record({.dir = trace::Direction::kServerToClient,
                       .kind = trace::EventKind::kHpackInsert,
                       .detail_a = static_cast<std::uint32_t>(inserts)});
  }
  if (evictions != 0) {
    recorder_->record({.dir = trace::Direction::kServerToClient,
                       .kind = trace::EventKind::kHpackEvict,
                       .detail_a = static_cast<std::uint32_t>(evictions)});
  }
}

void Http2Server::note_window_stalls() {
  if (recorder_ == nullptr) return;
  for (auto& [id, s] : streams_) {
    if (s.stall_traced || s.sm.closed() || !s.response_ready || s.stalled) {
      continue;
    }
    bool blocked = false;
    if (s.headers_sent) {
      blocked = s.body_offset < s.body_size &&
                (s.send_window.available() <= 0 ||
                 conn_send_window_.available() <= 0);
    } else {
      blocked = (profile_->flow_control_on_headers &&
                 s.send_window.available() <= 0) ||
                (profile_->headers_blocked_by_conn_window &&
                 conn_send_window_.available() <= 0);
    }
    if (!blocked) continue;
    recorder_->record({.dir = trace::Direction::kServerToClient,
                       .kind = trace::EventKind::kWindowStall,
                       .stream_id = id});
    s.stall_traced = true;
  }
}

void Http2Server::note_window_resume(Stream& stream) {
  if (recorder_ == nullptr || !stream.stall_traced) return;
  recorder_->record({.dir = trace::Direction::kServerToClient,
                     .kind = trace::EventKind::kWindowResume,
                     .stream_id = stream.sm.id()});
  stream.stall_traced = false;
}

void Http2Server::react(ErrorReaction reaction, std::uint32_t stream_id,
                        ErrorCode stream_code, ErrorCode conn_code,
                        std::string debug) {
  switch (reaction) {
    case ErrorReaction::kIgnore:
      return;
    case ErrorReaction::kRstStream:
      if (stream_id != 0) return stream_error(stream_id, stream_code);
      return connection_error(conn_code, std::move(debug));
    case ErrorReaction::kGoaway:
      return connection_error(conn_code, "");
    case ErrorReaction::kGoawayWithDebug:
      return connection_error(conn_code, std::move(debug));
  }
}

void Http2Server::stream_error(std::uint32_t stream_id, ErrorCode code) {
  send_frame(h2::make_rst_stream(stream_id, code));
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) (void)it->second.sm.on_send_rst();
  close_stream(stream_id);
}

void Http2Server::connection_error(ErrorCode code, std::string debug) {
  send_frame(h2::make_goaway(last_client_stream_id_, code, std::move(debug)));
  dead_ = true;
}

void Http2Server::close_stream(std::uint32_t stream_id) {
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) {
    if (it->second.response_ready) {
      unpin_octets(it->second.body_size - it->second.body_offset);
    }
    it->second.response_ready = false;
    it->second.body_offset = it->second.body_size;
    if (it->second.sm.closed()) ++closed_since_sweep_;
  }
  tree_.remove(stream_id);
  if (draining_ && active_stream_count() == 0) dead_ = true;
}

// ------------------------------------------------------------ stream table

void Http2Server::open_refused(std::uint32_t id, bool end_stream) {
  Stream& refused = open_stream(id, 0, 0);
  refused.request_headers.clear();
  (void)refused.sm.on_recv_headers(end_stream);
}

Http2Server::Stream& Http2Server::open_stream(std::uint32_t id,
                                              std::int64_t send_window,
                                              std::int64_t recv_window) {
  if (spare_nodes_.empty()) {
    return streams_.try_emplace(id, id, send_window, recv_window)
        .first->second;
  }
  StreamTable::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.key() = id;
  node.mapped().rewind(id, send_window, recv_window);
  return streams_.insert(std::move(node)).position->second;
}

namespace {

/// Sort key of swept runs: parity first, so each parity's runs are one
/// id-sorted stretch.
std::uint64_t swept_key(std::uint32_t id) {
  return (static_cast<std::uint64_t>(id & 1u) << 32) | id;
}

}  // namespace

Http2Server::SweptRuns::iterator Http2Server::find_swept(
    std::uint32_t stream_id) {
  // The last run of this parity that starts at or before stream_id.
  auto it = std::upper_bound(
      swept_.begin(), swept_.end(), swept_key(stream_id),
      [](std::uint64_t key, const SweptRun& r) {
        return key < swept_key(r.first);
      });
  if (it == swept_.begin()) return swept_.end();
  --it;
  const bool holds = ((it->first ^ stream_id) & 1u) == 0 &&
                     stream_id <= it->last();
  return holds ? it : swept_.end();
}

void Http2Server::add_swept(std::uint32_t id, std::uint32_t recv_window) {
  const auto joins = [&](const SweptRun& r) {
    return ((r.first ^ id) & 1u) == 0 && r.recv_window == recv_window;
  };
  auto next = std::upper_bound(
      swept_.begin(), swept_.end(), swept_key(id),
      [](std::uint64_t key, const SweptRun& r) {
        return key < swept_key(r.first);
      });
  const bool joins_next =
      next != swept_.end() && joins(*next) && next->first == id + 2;
  if (next != swept_.begin()) {
    const auto prev = std::prev(next);
    if (joins(*prev) && prev->last() + 2 == id) {
      ++prev->count;
      if (joins_next) {
        prev->count += next->count;
        swept_.erase(next);
      }
      return;
    }
  }
  if (joins_next) {
    next->first = id;
    ++next->count;
    return;
  }
  swept_.insert(next, {id, 1, recv_window});
}

Http2Server::SweptRuns::iterator Http2Server::isolate_swept(
    SweptRuns::iterator run, std::uint32_t id) {
  const SweptRun whole = *run;
  const std::uint32_t before = (id - whole.first) / 2;
  const std::uint32_t after = whole.count - before - 1;
  auto index = run - swept_.begin();
  *run = {id, 1, whole.recv_window};
  if (after > 0) {
    swept_.insert(swept_.begin() + index + 1,
                  {id + 2, after, whole.recv_window});
  }
  if (before > 0) {
    swept_.insert(swept_.begin() + index, {whole.first, before,
                                           whole.recv_window});
    ++index;
  }
  return swept_.begin() + index;
}

void Http2Server::sweep_closed_streams() {
  closed_since_sweep_ = 0;
  if (spare_nodes_.capacity() == 0) spare_nodes_.reserve(kSpareStreamNodes);
  for (auto it = streams_.begin(); it != streams_.end();) {
    const Stream& s = it->second;
    // A closed stream can still pin octets (a response started after a
    // stream error reset it); it stays until close_stream() releases them.
    if (!s.sm.closed() || s.response_ready) {
      ++it;
      continue;
    }
    assert(s.recv_window.available() >= 0 &&
           s.recv_window.available() <= h2::kMaxWindowSize);
    const std::int64_t send = s.send_window.available();
    swept_send_peak_.reset_to(
        swept_.empty() ? send : std::max(swept_send_peak_.available(), send));
    add_swept(it->first, static_cast<std::uint32_t>(s.recv_window.available()));
    auto node = streams_.extract(it++);
    if (spare_nodes_.size() < kSpareStreamNodes) {
      spare_nodes_.push_back(std::move(node));
    }
  }
}

// -------------------------------------------------------------- mitigation

void Http2Server::pin_octets(std::size_t n) {
  pinned_octets_ += n;
  if (pinned_octets_ > peak_pinned_octets_) peak_pinned_octets_ = pinned_octets_;
}

void Http2Server::unpin_octets(std::size_t n) {
  assert(n <= pinned_octets_);
  pinned_octets_ -= n;
}

void Http2Server::mitigation_on_frame(const h2::FrameView& frame) {
  const MitigationPolicy& pol = profile_->mitigation;
  if (frames_received_ - window_started_frame_ >= pol.window_frames) {
    window_started_frame_ = frames_received_;
    resets_in_window_ = 0;
    control_in_window_ = 0;
    priority_in_window_ = 0;
  }
  switch (frame.type()) {
    case FrameType::kRstStream:
      ++resets_in_window_;
      break;
    case FrameType::kPing:
    case FrameType::kSettings:
      if (!frame.has_flag(h2::flags::kAck)) ++control_in_window_;
      break;
    case FrameType::kPriority:
      ++priority_in_window_;
      break;
    default:
      break;
  }
  // The one O(streams) check, amortized to every 32nd frame: an upload
  // stream older than the age budget that delivered almost nothing is a
  // slow-POST dribble. Ages are in received frames, so transport stalls
  // (which deliver no frames) age nothing.
  if (pol.slow_post_age_frames != 0 && (frames_received_ & 31u) == 0) {
    slow_post_suspect_ = false;
    for (const auto& [id, s] : streams_) {
      if (s.sm.closed() || s.response_ready || s.is_push) continue;
      if (frames_received_ - s.opened_at_frame > pol.slow_post_age_frames &&
          s.uploaded_bytes < pol.slow_post_min_bytes) {
        slow_post_suspect_ = true;
        break;
      }
    }
  }
}

trace::AttackClass Http2Server::mitigation_violation() const {
  const MitigationPolicy& pol = profile_->mitigation;
  // Pinned octets alone are not a violation — benign bulk transfers pin
  // megabytes transiently. The slow-read signature is pinned octets *and*
  // no delivery progress for a sustained stretch of received frames.
  if (pol.max_pinned_octets != 0 && pinned_octets_ > pol.max_pinned_octets &&
      frames_received_ - last_progress_frame_ > pol.slow_read_stall_frames) {
    return trace::AttackClass::kSlowRead;
  }
  if (slow_post_suspect_) return trace::AttackClass::kSlowPost;
  if (pol.max_resets_per_window != 0 &&
      resets_in_window_ > pol.max_resets_per_window) {
    return trace::AttackClass::kRapidReset;
  }
  if (pol.max_control_per_window != 0 &&
      control_in_window_ > pol.max_control_per_window) {
    return trace::AttackClass::kControlFlood;
  }
  if (pol.max_priority_per_window != 0 &&
      priority_in_window_ > pol.max_priority_per_window) {
    return trace::AttackClass::kPriorityChurn;
  }
  return trace::AttackClass::kNone;
}

void Http2Server::mitigation_check() {
  const MitigationPolicy& pol = profile_->mitigation;
  const trace::AttackClass cls = mitigation_violation();
  if (cls == trace::AttackClass::kNone) {
    // Graceful release — from throttle only, and only after the violation
    // has stayed clear for two full rate windows (the per-window counters
    // read as clear right after every window roll; a shorter quiet bar
    // would flap mid-attack and never escalate).
    if (mitigation_level_ == MitigationLevel::kThrottle &&
        frames_received_ - last_violation_frame_ >= 2 * pol.window_frames) {
      mitigation_level_ = MitigationLevel::kNone;
      note_mitigation(MitigationLevel::kNone, suspected_attack_);
      suspected_attack_ = trace::AttackClass::kNone;
    }
    return;
  }
  last_violation_frame_ = frames_received_;
  switch (mitigation_level_) {
    case MitigationLevel::kNone:
      mitigation_level_ = MitigationLevel::kThrottle;
      suspected_attack_ = cls;
      level_started_frame_ = frames_received_;
      note_mitigation(MitigationLevel::kThrottle, cls);
      return;
    case MitigationLevel::kThrottle:
      if (frames_received_ - level_started_frame_ < pol.escalation_patience) {
        return;
      }
      mitigation_level_ = MitigationLevel::kRstOffenders;
      level_started_frame_ = frames_received_;
      note_mitigation(MitigationLevel::kRstOffenders, cls);
      rst_offenders(cls);
      return;
    case MitigationLevel::kRstOffenders:
      if (frames_received_ - level_started_frame_ < pol.escalation_patience) {
        return;
      }
      mitigation_level_ = MitigationLevel::kGoaway;
      note_mitigation(MitigationLevel::kGoaway, suspected_attack_);
      connection_error(
          ErrorCode::kEnhanceYourCalm,
          "mitigation=" + std::string(trace::to_string(suspected_attack_)));
      return;
    case MitigationLevel::kGoaway:
      return;
  }
}

void Http2Server::rst_offenders(trace::AttackClass cls) {
  const MitigationPolicy& pol = profile_->mitigation;
  std::vector<std::uint32_t> victims;
  for (const auto& [id, s] : streams_) {
    if (s.sm.closed()) continue;
    if (cls == trace::AttackClass::kSlowRead) {
      // Streams holding undeliverable response octets — resetting them
      // releases exactly what the attacker pinned.
      if (s.response_ready && s.body_offset < s.body_size) victims.push_back(id);
    } else if (cls == trace::AttackClass::kSlowPost) {
      if (!s.response_ready && !s.is_push &&
          frames_received_ - s.opened_at_frame > pol.slow_post_age_frames &&
          s.uploaded_bytes < pol.slow_post_min_bytes) {
        victims.push_back(id);
      }
    }
    // Flood classes have no stream-scoped offenders; this stage is a
    // patience interval before GOAWAY.
  }
  for (const std::uint32_t id : victims) {
    stream_error(id, ErrorCode::kEnhanceYourCalm);
  }
}

void Http2Server::note_mitigation(MitigationLevel level,
                                  trace::AttackClass cls) {
  if (recorder_ == nullptr) return;
  recorder_->record({.dir = trace::Direction::kServerToClient,
                     .kind = trace::EventKind::kMitigation,
                     .detail_a = static_cast<std::uint32_t>(level),
                     .detail_b = static_cast<std::uint32_t>(cls),
                     .note = trace::to_string(cls)});
}

}  // namespace h2r::server
