#include "core/client.h"

#include <algorithm>
#include <initializer_list>
#include <string_view>

namespace h2r::core {
namespace {

using h2::Frame;
using h2::FrameType;
using Keep = ClientOptions::Keep;

/// The value keyed @p id in @p sorted (ascending ids), inserted
/// value-initialized when absent.
template <typename V>
V& upsert(std::vector<std::pair<std::uint32_t, V>>& sorted,
          std::uint32_t id) {
  if (sorted.empty() || sorted.back().first < id) {
    return sorted.emplace_back(id, V{}).second;
  }
  const auto at = std::lower_bound(
      sorted.begin(), sorted.end(), id,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  if (at != sorted.end() && at->first == id) return at->second;
  return sorted.emplace(at, id, V{})->second;
}

/// The value keyed @p id in @p sorted, or null.
template <typename V>
const V* lookup(const std::vector<std::pair<std::uint32_t, V>>& sorted,
                std::uint32_t id) {
  const auto at = std::lower_bound(
      sorted.begin(), sorted.end(), id,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  return at != sorted.end() && at->first == id ? &at->second : nullptr;
}

/// Overwrites @p list with @p fields, assigning into the existing entries'
/// strings so a reused list allocates nothing once warm.
void assign_fields(
    hpack::HeaderList& list,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields) {
  list.resize(fields.size());
  auto it = list.begin();
  for (const auto& [name, value] : fields) {
    it->name.assign(name);
    it->value.assign(value);
    it->never_indexed = false;
    ++it;
  }
}

}  // namespace

std::string_view to_string(ClientTerminal t) noexcept {
  switch (t) {
    case ClientTerminal::kQuiescent:
      return "quiescent";
    case ClientTerminal::kTransportError:
      return "transport-error";
    case ClientTerminal::kProtocolError:
      return "protocol-error";
  }
  return "unknown";
}

ClientOptions& ClientOptions::with_initial_window(std::uint32_t window) {
  for (auto& [id, value] : settings) {
    if (id == h2::SettingId::kInitialWindowSize) {
      value = window;
      return *this;
    }
  }
  settings.emplace_back(h2::SettingId::kInitialWindowSize, window);
  return *this;
}

ClientOptions ClientOptions::slow_read_stance(std::uint32_t window) {
  ClientOptions opts;
  opts.with_initial_window(window);
  opts.auto_stream_window_update = false;
  return opts;
}

ClientConnection::ClientConnection(ClientOptions options)
    : options_(std::move(options)),
      parser_(h2::kMaxAllowedFrameSize),  // accept whatever the server sends
      encoder_({.policy = hpack::IndexingPolicy::kAggressive,
                .use_huffman = true}),
      decoder_() {
  if (options_.recorder != nullptr) {
    options_.recorder->begin_connection(options_.authority);
  }
  events_.reserve(16);
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  send_preface();
}

void ClientConnection::reset(ClientOptions options) {
  options_ = std::move(options);
  reset();
}

void ClientConnection::reset() {
  parser_.reset(h2::kMaxAllowedFrameSize);
  encoder_.reset({.policy = hpack::IndexingPolicy::kAggressive,
                  .use_huffman = true});
  decoder_.reset({});
  server_settings_.clear();
  server_settings_received_ = false;
  server_settings_entry_count_ = 0;
  next_stream_id_ = 1;
  sent_any_request_ = false;
  response_seen_ = false;
  preemptive_window_bonus_ = 0;
  events_.clear();
  records_.clear();
  rst_.clear();
  pushed_.clear();
  last_promised_id_ = 0;
  goaway_.reset();
  continuation_stream_.reset();
  continuation_buffer_.clear();
  continuation_end_stream_ = false;
  uploads_.clear();
  upload_conn_window_ = h2::FlowWindow(h2::kDefaultInitialWindowSize);
  upload_initial_window_ = h2::kDefaultInitialWindowSize;
  BufferPool::local().release(out_.take());
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  dead_ = false;
  terminal_ = TerminalInfo{};
  if (options_.recorder != nullptr) {
    options_.recorder->begin_connection(options_.authority);
  }
  send_preface();
}

void ClientConnection::send_preface() {
  out_.write_string(h2::kClientPreface);
  // The frame is a member so its entry list keeps its storage across
  // connections (reset()).
  auto& entries = preface_settings_.as<h2::SettingsPayload>().entries;
  entries.clear();
  for (const auto& [id, value] : options_.settings) {
    entries.emplace_back(static_cast<std::uint16_t>(id), value);
  }
  send_frame(preface_settings_);
}

void ClientConnection::release_buffers() {
  parser_.release_buffer();
  if (out_.size() == 0) BufferPool::local().release(out_.take());
}

Bytes ClientConnection::take_output() {
  Bytes drained = out_.take();
  out_ = ByteWriter(BufferPool::local().acquire(BufferPool::kOutputFloor));
  return drained;
}

void ClientConnection::send_frame(const Frame& frame) {
  const std::size_t wire = h2::serialize_frame_into(out_, frame);
  if (options_.recorder != nullptr) {
    options_.recorder->record_frame(trace::Direction::kClientToServer, frame,
                                    wire);
  }
}

Bytes ClientConnection::encode_block(const hpack::HeaderList& headers) {
  const std::uint64_t ins = encoder_.table().insert_count();
  const std::uint64_t ev = encoder_.table().eviction_count();
  Bytes block = encoder_.encode(headers);
  note_hpack_delta(trace::Direction::kClientToServer,
                   encoder_.table().insert_count() - ins,
                   encoder_.table().eviction_count() - ev);
  return block;
}

void ClientConnection::note_hpack_delta(trace::Direction dir,
                                        std::uint64_t inserts,
                                        std::uint64_t evictions) {
  if (options_.recorder == nullptr) return;
  if (inserts != 0) {
    options_.recorder->record(
        {.dir = dir,
         .kind = trace::EventKind::kHpackInsert,
         .detail_a = static_cast<std::uint32_t>(inserts)});
  }
  if (evictions != 0) {
    options_.recorder->record(
        {.dir = dir,
         .kind = trace::EventKind::kHpackEvict,
         .detail_a = static_cast<std::uint32_t>(evictions)});
  }
}

void ClientConnection::send_request_headers(
    std::uint32_t id, bool end_stream,
    std::optional<h2::PriorityInfo> priority) {
  h2::Frame frame = h2::make_headers(id, encode_block(request_headers_),
                                     end_stream, /*end_headers=*/true,
                                     priority);
  send_frame(frame);
  BufferPool::local().release(
      std::move(frame.as<h2::HeadersPayload>().fragment));
}

std::uint32_t ClientConnection::send_request(
    const std::string& path, std::optional<h2::PriorityInfo> priority,
    bool end_stream) {
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  sent_any_request_ = true;
  assign_fields(request_headers_, {{":method", "GET"},
                                   {":scheme", "https"},
                                   {":authority", options_.authority},
                                   {":path", path}});
  send_request_headers(id, end_stream, priority);
  return id;
}

std::uint32_t ClientConnection::send_request_with_body(
    const std::string& path, Bytes body, const std::string& content_type) {
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  sent_any_request_ = true;
  assign_fields(request_headers_,
                {{":method", "POST"},
                 {":scheme", "https"},
                 {":authority", options_.authority},
                 {":path", path},
                 {"content-type", content_type},
                 {"content-length", std::to_string(body.size())}});
  send_request_headers(id, /*end_stream=*/false, std::nullopt);
  Upload upload{.body = std::move(body), .offset = 0,
                .window = h2::FlowWindow(upload_initial_window_)};
  uploads_.emplace(id, std::move(upload));
  flush_uploads();
  return id;
}

std::size_t ClientConnection::pending_upload_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, u] : uploads_) total += u.body.size() - u.offset;
  return total;
}

void ClientConnection::flush_uploads() {
  for (auto it = uploads_.begin(); it != uploads_.end();) {
    Upload& u = it->second;
    bool done = false;
    while (u.offset < u.body.size()) {
      const auto budget = std::min<std::int64_t>(
          {static_cast<std::int64_t>(u.body.size() - u.offset),
           u.window.available(), upload_conn_window_.available(),
           static_cast<std::int64_t>(h2::kDefaultMaxFrameSize)});
      if (budget <= 0) break;
      Bytes chunk(u.body.begin() + static_cast<std::ptrdiff_t>(u.offset),
                  u.body.begin() +
                      static_cast<std::ptrdiff_t>(u.offset + budget));
      u.offset += static_cast<std::size_t>(budget);
      (void)u.window.consume(budget);
      (void)upload_conn_window_.consume(budget);
      done = u.offset == u.body.size();
      send_frame(h2::make_data(it->first, std::move(chunk), done));
    }
    // Zero-length bodies still need their END_STREAM.
    if (u.body.empty()) {
      send_frame(h2::make_data(it->first, {}, true));
      done = true;
    }
    it = done ? uploads_.erase(it) : std::next(it);
  }
}

void ClientConnection::send_ping(std::array<std::uint8_t, 8> opaque) {
  send_frame(h2::make_ping(opaque, /*ack=*/false));
}

void ClientConnection::send_window_update(std::uint32_t stream_id,
                                          std::uint32_t increment) {
  send_frame(h2::make_window_update(stream_id, increment));
}

void ClientConnection::send_priority(std::uint32_t stream_id,
                                     const h2::PriorityInfo& info) {
  send_frame(h2::make_priority(stream_id, info));
}

void ClientConnection::send_rst_stream(std::uint32_t stream_id,
                                       h2::ErrorCode code) {
  send_frame(h2::make_rst_stream(stream_id, code));
}

void ClientConnection::send_settings(
    std::vector<std::pair<h2::SettingId, std::uint32_t>> entries) {
  send_frame(h2::make_settings(std::move(entries)));
}

void ClientConnection::receive(std::span<const std::uint8_t> bytes) {
  if (dead_) return;
  auto frames = parser_.parse_in_place(bytes);
  while (auto next = frames.next()) {
    if (!next->ok()) {
      // Surface the evidence, not just "parse error": the parser knows
      // which frame (stream offset + type octet) poisoned the stream.
      const auto& ctx = parser_.error_context();
      fail_protocol(next->status(), ctx ? ctx->frame_offset : 0,
                    ctx ? ctx->frame_type : 0, ctx && ctx->type_known);
      return;
    }
    on_frame(next->value());
    if (dead_) return;
  }
}

void ClientConnection::fail_protocol(Status status, std::uint64_t byte_offset,
                                     std::uint8_t frame_type,
                                     bool frame_type_known) {
  terminal_.state = ClientTerminal::kProtocolError;
  terminal_.status = std::move(status);
  terminal_.byte_offset = byte_offset;
  terminal_.frame_type = frame_type;
  terminal_.frame_type_known = frame_type_known;
  if (options_.recorder != nullptr) {
    options_.recorder->record(
        {.dir = trace::Direction::kServerToClient,
         .kind = trace::EventKind::kParseError,
         .frame_type = frame_type,
         .detail_a = static_cast<std::uint32_t>(byte_offset),
         .detail_b = frame_type_known ? 1u : 0u,
         .note = terminal_.status.message()});
  }
  dead_ = true;
}

void ClientConnection::close(h2::ErrorCode code) {
  if (dead_) return;
  // Last peer-initiated stream we processed: the highest PUSH_PROMISE id
  // seen, or 0 when the server never pushed (RFC 7540 §6.8).
  send_frame(h2::make_goaway(last_promised_id_, code, ""));
  dead_ = true;
}

void ClientConnection::on_transport_close(const Status& status) {
  // A protocol-level cause already recorded on this connection (parse
  // error, GOAWAY) outranks the transport dying afterwards.
  if (!dead_ && terminal_.state == ClientTerminal::kQuiescent &&
      !goaway_.has_value()) {
    terminal_.state = ClientTerminal::kTransportError;
    terminal_.status = status;
    terminal_.byte_offset = parser_.fed_total();
  }
  dead_ = true;
}

void ClientConnection::on_frame(const h2::FrameView& view) {
  if (options_.keep == Keep::kCompletions) {
    apply_frame(view, nullptr);
    return;
  }
  ReceivedFrame ev;
  ev.sequence = events_.size();
  // Payload octets for the frame kinds whose sizes probes reason about.
  if (view.type() == FrameType::kData || view.type() == FrameType::kHeaders ||
      view.type() == FrameType::kPushPromise) {
    ev.header_block_size = view.body.size();
  }
  apply_frame(view, &ev);
  events_.push_back(std::move(ev));
  if (view.type() == FrameType::kData && options_.keep == Keep::kFrameSizes) {
    // Size-only observation: the event keeps the frame's identity (type,
    // flags, stream) and header_block_size; the body octets stay behind in
    // the parser buffer.
    Frame stripped;
    stripped.flags = view.flags;
    stripped.stream_id = view.stream_id;
    stripped.payload = h2::DataPayload{};
    events_.back().frame = std::move(stripped);
  } else {
    events_.back().frame = h2::materialize(view);
  }
}

bool ClientConnection::decode_block(std::span<const std::uint8_t> block,
                                    const h2::FrameView& view,
                                    ReceivedFrame* ev) {
  if (ev != nullptr) {
    auto decoded = decoder_.decode(block);
    if (decoded.ok()) ev->headers = std::move(decoded).value();
    return true;
  }
  Status status = decoder_.decode_into(block, decoded_headers_);
  if (status.ok()) return true;
  const std::uint64_t frame_offset = parser_.fed_total() -
                                     parser_.unparsed_bytes() -
                                     h2::kFrameHeaderSize -
                                     view.payload_wire_octets;
  fail_protocol(std::move(status), frame_offset, view.raw_type, true);
  return false;
}

void ClientConnection::apply_frame(const h2::FrameView& view,
                                   ReceivedFrame* ev) {
  switch (view.type()) {
    case FrameType::kData: {
      response_seen_ = true;
      StreamRecord& record = upsert(records_, view.stream_id);
      record.data_bytes += view.body.size();
      if (view.has_flag(h2::flags::kEndStream)) record.complete = true;
      if (!view.body.empty()) {
        const auto n = static_cast<std::uint32_t>(view.body.size());
        if (options_.auto_connection_window_update) send_window_update(0, n);
        if (options_.auto_stream_window_update && !record.complete) {
          send_window_update(view.stream_id, n);
        }
      }
      break;
    }
    case FrameType::kHeaders: {
      response_seen_ = true;
      if (!view.has_flag(h2::flags::kEndHeaders)) {
        // Header block continues in CONTINUATION frames (§4.3).
        continuation_stream_ = view.stream_id;
        continuation_buffer_.assign(view.body.begin(), view.body.end());
        continuation_end_stream_ = view.has_flag(h2::flags::kEndStream);
        break;
      }
      if (!decode_block(view.body, view, ev)) return;
      if (view.has_flag(h2::flags::kEndStream)) {
        upsert(records_, view.stream_id).complete = true;
      }
      break;
    }
    case FrameType::kContinuation: {
      if (!continuation_stream_ || *continuation_stream_ != view.stream_id) {
        break;  // stray CONTINUATION; record the event, decode nothing
      }
      continuation_buffer_.insert(continuation_buffer_.end(),
                                  view.body.begin(), view.body.end());
      if (!view.has_flag(h2::flags::kEndHeaders)) break;
      if (!decode_block(continuation_buffer_, view, ev)) return;
      if (ev != nullptr) ev->header_block_size = continuation_buffer_.size();
      if (continuation_end_stream_) {
        upsert(records_, view.stream_id).complete = true;
      }
      continuation_stream_.reset();
      continuation_buffer_.clear();
      break;
    }
    case FrameType::kPushPromise: {
      if (!decode_block(view.body, view, ev)) return;
      if (ev != nullptr && !ev->headers) break;  // undecodable: not a push
      last_promised_id_ = std::max(last_promised_id_, view.promised_stream_id);
      if (ev != nullptr) upsert(pushed_, view.promised_stream_id) = *ev->headers;
      break;
    }
    case FrameType::kSettings: {
      if (!view.has_flag(h2::flags::kAck)) {
        if (!server_settings_received_) {
          server_settings_received_ = true;
          server_settings_entry_count_ = view.settings_entry_count();
        }
        (void)server_settings_.apply_frame(view);
        if (options_.recorder != nullptr) {
          for (std::size_t i = 0; i < view.settings_entry_count(); ++i) {
            const auto [id, value] = view.setting_at(i);
            options_.recorder->record(
                {.dir = trace::Direction::kServerToClient,
                 .kind = trace::EventKind::kSettingsApplied,
                 .detail_a = id,
                 .detail_b = value});
          }
        }
        send_frame(h2::make_settings_ack());
        // Honor the server's header table preference for *our* encoder.
        encoder_.set_table_capacity(
            std::min(server_settings_.header_table_size(),
                     h2::kDefaultHeaderTableSize));
        // §6.9.2: retroactively adjust upload windows to the server's
        // announced SETTINGS_INITIAL_WINDOW_SIZE.
        const std::uint32_t new_iws = server_settings_.initial_window_size();
        if (new_iws != upload_initial_window_) {
          for (auto& [id, u] : uploads_) {
            (void)u.window.adjust_initial(upload_initial_window_, new_iws);
          }
          upload_initial_window_ = new_iws;
          flush_uploads();
        }
      }
      break;
    }
    case FrameType::kPing: {
      if (!view.has_flag(h2::flags::kAck)) {
        std::array<std::uint8_t, 8> opaque{};
        std::copy_n(view.body.begin(), 8, opaque.begin());
        send_frame(h2::make_ping(opaque, true));
      }
      break;
    }
    case FrameType::kRstStream:
      upsert(rst_, view.stream_id) = view.error;
      break;
    case FrameType::kGoaway:
      goaway_ = h2::GoawayPayload{
          .last_stream_id = view.last_stream_id,
          .error = view.error,
          .debug_data = Bytes(view.body.begin(), view.body.end())};
      break;
    case FrameType::kWindowUpdate: {
      const std::uint32_t increment = view.increment;
      // "Preemptive": a connection-scope window raise before the server has
      // produced any response frame — the Nginx §V-C idiom.
      if (view.stream_id == 0 && !response_seen_) {
        preemptive_window_bonus_ += increment;
      }
      if (view.stream_id == 0) {
        (void)upload_conn_window_.expand(increment);
      } else if (auto it = uploads_.find(view.stream_id); it != uploads_.end()) {
        (void)it->second.window.expand(increment);
      }
      flush_uploads();
      break;
    }
    default:
      break;
  }
}

std::vector<const ReceivedFrame*> ClientConnection::frames_of(
    h2::FrameType type, std::optional<std::uint32_t> stream_id) const {
  std::vector<const ReceivedFrame*> out;
  for (const auto& ev : events_) {
    if (ev.frame.type() != type) continue;
    if (stream_id && ev.frame.stream_id != *stream_id) continue;
    out.push_back(&ev);
  }
  return out;
}

const ReceivedFrame* ClientConnection::first_frame_of(
    h2::FrameType type, std::optional<std::uint32_t> stream_id) const {
  for (const auto& ev : events_) {
    if (ev.frame.type() != type) continue;
    if (stream_id && ev.frame.stream_id != *stream_id) continue;
    return &ev;
  }
  return nullptr;
}

std::optional<h2::ErrorCode> ClientConnection::rst_on(
    std::uint32_t stream_id) const {
  const h2::ErrorCode* code = lookup(rst_, stream_id);
  return code != nullptr ? std::optional<h2::ErrorCode>(*code) : std::nullopt;
}

std::size_t ClientConnection::data_received(std::uint32_t stream_id) const {
  const StreamRecord* r = lookup(records_, stream_id);
  return r != nullptr ? r->data_bytes : 0;
}

bool ClientConnection::stream_complete(std::uint32_t stream_id) const {
  const StreamRecord* r = lookup(records_, stream_id);
  return r != nullptr && r->complete;
}

std::optional<hpack::HeaderList> ClientConnection::response_headers(
    std::uint32_t stream_id) const {
  for (const auto& ev : events_) {
    const auto type = ev.frame.type();
    if ((type == h2::FrameType::kHeaders ||
         type == h2::FrameType::kContinuation) &&
        ev.frame.stream_id == stream_id && ev.headers) {
      return ev.headers;
    }
  }
  return std::nullopt;
}

}  // namespace h2r::core
