#include "h2/frame_codec.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>
#include <variant>

namespace h2r::h2 {
namespace {

constexpr std::uint32_t kStreamIdMask = 0x7FFF'FFFFu;

void write_priority_info(ByteWriter& out, const PriorityInfo& p) {
  out.write_u32((p.dependency & kStreamIdMask) |
                (p.exclusive ? 0x8000'0000u : 0u));
  out.write_u8(p.weight_field);
}

void write_goaway_payload(ByteWriter& out, std::uint32_t last_stream_id,
                          ErrorCode error,
                          std::span<const std::uint8_t> debug) {
  out.write_u32(last_stream_id & kStreamIdMask);
  out.write_u32(static_cast<std::uint32_t>(error));
  out.write_bytes(debug);
}

struct SerializeVisitor {
  const Frame& frame;
  ByteWriter& out;

  void operator()(const DataPayload& p) const {
    const bool padded = p.pad_length > 0;
    const std::size_t length =
        p.data.size() + (padded ? 1 + p.pad_length : 0);
    write_frame_header(out, length, FrameType::kData,
                       static_cast<std::uint8_t>(frame.flags |
                                                 (padded ? flags::kPadded : 0)),
                       frame.stream_id);
    if (padded) out.write_u8(p.pad_length);
    out.write_bytes(p.data);
    out.write_zeros(p.pad_length);
  }

  void operator()(const HeadersPayload& p) const {
    const bool padded = p.pad_length > 0;
    std::uint8_t flagbits = frame.flags;
    std::size_t length = p.fragment.size();
    if (padded) {
      flagbits |= flags::kPadded;
      length += 1 + p.pad_length;
    }
    if (p.priority) {
      flagbits |= flags::kPriority;
      length += 5;
    }
    write_frame_header(out, length, FrameType::kHeaders, flagbits,
                       frame.stream_id);
    if (padded) out.write_u8(p.pad_length);
    if (p.priority) write_priority_info(out, *p.priority);
    out.write_bytes(p.fragment);
    out.write_zeros(p.pad_length);
  }

  void operator()(const PriorityPayload& p) const {
    write_frame_header(out, 5, FrameType::kPriority, frame.flags,
                       frame.stream_id);
    write_priority_info(out, p.info);
  }

  void operator()(const RstStreamPayload& p) const {
    write_frame_header(out, 4, FrameType::kRstStream, frame.flags,
                       frame.stream_id);
    out.write_u32(static_cast<std::uint32_t>(p.error));
  }

  void operator()(const SettingsPayload& p) const {
    write_frame_header(out, p.entries.size() * 6, FrameType::kSettings,
                       frame.flags, frame.stream_id);
    for (const auto& [id, value] : p.entries) {
      out.write_u16(id);
      out.write_u32(value);
    }
  }

  void operator()(const PushPromisePayload& p) const {
    const bool padded = p.pad_length > 0;
    std::uint8_t flagbits = frame.flags;
    std::size_t length = 4 + p.fragment.size();
    if (padded) {
      flagbits |= flags::kPadded;
      length += 1 + p.pad_length;
    }
    write_frame_header(out, length, FrameType::kPushPromise, flagbits,
                       frame.stream_id);
    if (padded) out.write_u8(p.pad_length);
    out.write_u32(p.promised_stream_id & kStreamIdMask);
    out.write_bytes(p.fragment);
    out.write_zeros(p.pad_length);
  }

  void operator()(const PingPayload& p) const {
    write_frame_header(out, kPingPayloadSize, FrameType::kPing, frame.flags,
                       frame.stream_id);
    out.write_bytes(p.opaque);
  }

  void operator()(const GoawayPayload& p) const {
    write_frame_header(out, 8 + p.debug_data.size(), FrameType::kGoaway,
                       frame.flags, frame.stream_id);
    write_goaway_payload(out, p.last_stream_id, p.error, p.debug_data);
  }

  void operator()(const WindowUpdatePayload& p) const {
    write_frame_header(out, 4, FrameType::kWindowUpdate, frame.flags,
                       frame.stream_id);
    out.write_u32(p.increment & kStreamIdMask);
  }

  void operator()(const ContinuationPayload& p) const {
    write_frame_header(out, p.fragment.size(), FrameType::kContinuation,
                       frame.flags, frame.stream_id);
    out.write_bytes(p.fragment);
  }

  void operator()(const UnknownPayload& p) const {
    write_frame_header(out, p.data.size(), static_cast<FrameType>(p.type),
                       frame.flags, frame.stream_id);
    out.write_bytes(p.data);
  }
};

/// Strips the optional Pad Length prefix and trailing padding. Returns the
/// unpadded body view or a PROTOCOL_ERROR when padding >= remaining length.
Result<std::span<const std::uint8_t>> strip_padding(
    std::span<const std::uint8_t> payload, bool padded) {
  if (!padded) return payload;
  if (payload.empty()) {
    return ProtocolViolationError("PADDED frame with empty payload");
  }
  const std::uint8_t pad = payload[0];
  if (pad + 1u > payload.size()) {
    return ProtocolViolationError("padding exceeds frame payload");
  }
  return payload.subspan(1, payload.size() - 1 - pad);
}

PriorityInfo read_priority_info(ByteReader& r) {
  // Caller has verified at least 5 octets remain.
  const std::uint32_t word = r.read_u32().value();
  PriorityInfo p;
  p.exclusive = (word & 0x8000'0000u) != 0;
  p.dependency = word & kStreamIdMask;
  p.weight_field = r.read_u8().value();
  return p;
}

}  // namespace

void write_frame_header(ByteWriter& out, std::size_t length, FrameType type,
                        std::uint8_t flagbits, std::uint32_t stream_id) {
  if (length > kMaxAllowedFrameSize) {
    throw std::invalid_argument("frame payload exceeds 2^24-1");
  }
  out.reserve(kFrameHeaderSize + length);
  out.write_u24(static_cast<std::uint32_t>(length));
  out.write_u8(static_cast<std::uint8_t>(type));
  out.write_u8(flagbits);
  out.write_u32(stream_id & kStreamIdMask);
}

std::size_t write_goaway(ByteWriter& out, std::uint32_t last_stream_id,
                         ErrorCode error, std::span<const std::uint8_t> debug) {
  const std::size_t length = 8 + debug.size();
  write_frame_header(out, length, FrameType::kGoaway, 0, 0);
  write_goaway_payload(out, last_stream_id, error, debug);
  return kFrameHeaderSize + length;
}

std::size_t serialize_frame_into(ByteWriter& out, const Frame& frame) {
  const std::size_t before = out.size();
  std::visit(SerializeVisitor{frame, out}, frame.payload);
  return out.size() - before;
}

Bytes serialize_frame(const Frame& frame) {
  ByteWriter out;
  serialize_frame_into(out, frame);
  return out.take();
}

Bytes serialize_frames(std::span<const Frame> frames) {
  ByteWriter out;
  for (const auto& f : frames) {
    serialize_frame_into(out, f);
  }
  return out.take();
}

FrameParser::FrameParser(std::uint32_t max_frame_size)
    : max_frame_size_(max_frame_size) {}

void FrameParser::reset(std::uint32_t max_frame_size) {
  assert(!in_place_);
  // The reassembly buffer goes back to the thread's pool rather than
  // staying pinned to an idle connection; the next feed() takes one out.
  BufferPool::local().release(std::move(buf_));
  buf_ = {};
  consumed_ = 0;
  fed_total_ = 0;
  max_frame_size_ = max_frame_size;
  poisoned_.reset();
  error_context_.reset();
}

void FrameParser::release_buffer() {
  assert(!in_place_);
  Bytes tail;
  if (consumed_ < buf_.size()) {
    tail = BufferPool::local().acquire(buf_.size() - consumed_);
    tail.assign(buf_.begin() + static_cast<std::ptrdiff_t>(consumed_),
                buf_.end());
  }
  BufferPool::local().release(std::move(buf_));
  buf_ = std::move(tail);
  consumed_ = 0;
}

void FrameParser::append(std::span<const std::uint8_t> bytes) {
  if (buf_.capacity() == 0) {
    // Room for a maximum-size default frame, so one round's input rarely
    // regrows the buffer.
    constexpr std::size_t kInitialBuffer = 16 * 1024;
    buf_ = BufferPool::local().acquire(std::max(bytes.size(), kInitialBuffer));
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  assert(!in_place_);
  append(bytes);
  fed_total_ += bytes.size();
}

// Inlined into both entries: an out-of-line call cost the copying entry
// about 9% per frame.
[[gnu::always_inline]] inline std::optional<Result<FrameView>>
FrameParser::parse_front(
    std::span<const std::uint8_t> avail, std::size_t& taken) {
  taken = 0;
  if (avail.size() < kFrameHeaderSize) return std::nullopt;

  // Stream offset of the frame header we are about to read: everything fed
  // minus what is still unparsed in front of us.
  const std::uint64_t frame_offset = fed_total_ - unparsed_bytes();

  ByteReader header(avail.first(kFrameHeaderSize));
  const std::uint32_t length = header.read_u24().value();
  const std::uint8_t type = header.read_u8().value();
  const std::uint8_t flagbits = header.read_u8().value();
  const std::uint32_t stream_id = header.read_u32().value() & kStreamIdMask;

  if (length > max_frame_size_) {
    poisoned_ = FrameSizeViolationError("frame exceeds SETTINGS_MAX_FRAME_SIZE");
    error_context_ = ParseErrorContext{frame_offset, type, true};
    return Result<FrameView>{*poisoned_};
  }
  if (avail.size() < kFrameHeaderSize + length) return std::nullopt;

  taken = kFrameHeaderSize + length;
  auto parsed = parse_view(type, flagbits, stream_id,
                           avail.subspan(kFrameHeaderSize, length));
  if (!parsed.ok()) {
    poisoned_ = parsed.status();
    error_context_ = ParseErrorContext{frame_offset, type, true};
  }
  return parsed;
}

std::optional<Result<FrameView>> FrameParser::next_view() {
  assert(!in_place_);
  if (poisoned_) return Result<FrameView>{*poisoned_};
  return next_buffered();
}

std::optional<Result<FrameView>> FrameParser::next_buffered() {
  // Compact lazily so feed() stays amortized O(1).
  if (consumed_ > 0 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  std::size_t taken = 0;
  auto next = parse_front({buf_.data() + consumed_, buf_.size() - consumed_},
                          taken);
  consumed_ += taken;
  return next;
}

FrameParser::InPlace FrameParser::parse_in_place(
    std::span<const std::uint8_t> bytes) {
  assert(!in_place_);
  in_place_ = true;
  borrowed_ = bytes;
  fed_total_ += bytes.size();
  return InPlace(*this);
}

std::optional<Result<FrameView>> FrameParser::next_in_place() {
  if (poisoned_) return Result<FrameView>{*poisoned_};
  if (consumed_ < buf_.size()) {
    // A frame started in an earlier delivery: finish it in the buffer.
    top_up();
    return next_buffered();
  }
  std::size_t taken = 0;
  auto next = parse_front(borrowed_, taken);
  borrowed_ = borrowed_.subspan(taken);
  return next;
}

void FrameParser::top_up() {
  while (!borrowed_.empty()) {
    const std::size_t have = buf_.size() - consumed_;
    std::size_t want = kFrameHeaderSize;
    if (have >= kFrameHeaderSize) {
      const std::uint8_t* head = buf_.data() + consumed_;
      const std::uint32_t length = (static_cast<std::uint32_t>(head[0]) << 16) |
                                   (static_cast<std::uint32_t>(head[1]) << 8) |
                                   head[2];
      // An oversized header poisons the parser without its payload.
      if (length > max_frame_size_) return;
      want += length;
    }
    if (have >= want) return;
    const std::size_t take = std::min(want - have, borrowed_.size());
    append(borrowed_.first(take));
    borrowed_ = borrowed_.subspan(take);
  }
}

void FrameParser::stash_borrowed() {
  if (!borrowed_.empty()) {
    if (consumed_ == buf_.size()) {
      buf_.clear();
      consumed_ = 0;
    }
    append(borrowed_);
    borrowed_ = {};
  }
  in_place_ = false;
}

Result<FrameView> FrameParser::parse_view(std::uint8_t type,
                                          std::uint8_t flagbits,
                                          std::uint32_t stream_id,
                                          std::span<const std::uint8_t> payload) {
  FrameView v;
  v.raw_type = type;
  v.flags = flagbits;
  v.stream_id = stream_id;
  v.payload_wire_octets = static_cast<std::uint32_t>(payload.size());

  switch (static_cast<FrameType>(type)) {
    case FrameType::kData: {
      H2R_ASSIGN_OR_RETURN(v.body,
                           strip_padding(payload, flagbits & flags::kPadded));
      return v;
    }
    case FrameType::kHeaders: {
      H2R_ASSIGN_OR_RETURN(auto body,
                           strip_padding(payload, flagbits & flags::kPadded));
      ByteReader r(body);
      if (flagbits & flags::kPriority) {
        if (r.remaining() < 5) {
          return FrameSizeViolationError("HEADERS with PRIORITY too short");
        }
        v.priority = read_priority_info(r);
      }
      v.body = body.subspan(r.position());
      return v;
    }
    case FrameType::kPriority: {
      if (payload.size() != 5) {
        return FrameSizeViolationError("PRIORITY length != 5");
      }
      ByteReader r(payload);
      v.priority = read_priority_info(r);
      return v;
    }
    case FrameType::kRstStream: {
      if (payload.size() != 4) {
        return FrameSizeViolationError("RST_STREAM length != 4");
      }
      ByteReader r(payload);
      v.error = static_cast<ErrorCode>(r.read_u32().value());
      return v;
    }
    case FrameType::kSettings: {
      if (payload.size() % 6 != 0) {
        return FrameSizeViolationError("SETTINGS length not multiple of 6");
      }
      if ((flagbits & flags::kAck) && !payload.empty()) {
        return FrameSizeViolationError("SETTINGS ACK with payload");
      }
      v.body = payload;
      return v;
    }
    case FrameType::kPushPromise: {
      H2R_ASSIGN_OR_RETURN(auto body,
                           strip_padding(payload, flagbits & flags::kPadded));
      if (body.size() < 4) {
        return FrameSizeViolationError("PUSH_PROMISE too short");
      }
      ByteReader r(body);
      v.promised_stream_id = r.read_u32().value() & kStreamIdMask;
      v.body = body.subspan(r.position());
      return v;
    }
    case FrameType::kPing: {
      if (payload.size() != kPingPayloadSize) {
        return FrameSizeViolationError("PING length != 8");
      }
      v.body = payload;
      return v;
    }
    case FrameType::kGoaway: {
      if (payload.size() < 8) {
        return FrameSizeViolationError("GOAWAY too short");
      }
      ByteReader r(payload);
      v.last_stream_id = r.read_u32().value() & kStreamIdMask;
      v.error = static_cast<ErrorCode>(r.read_u32().value());
      v.body = payload.subspan(r.position());
      return v;
    }
    case FrameType::kWindowUpdate: {
      if (payload.size() != 4) {
        return FrameSizeViolationError("WINDOW_UPDATE length != 4");
      }
      ByteReader r(payload);
      v.increment = r.read_u32().value() & kStreamIdMask;
      return v;
    }
    case FrameType::kContinuation: {
      v.body = payload;
      return v;
    }
  }
  // §4.1: unknown types must be ignored; we surface them tagged so a caller
  // can choose to skip.
  v.body = payload;
  return v;
}

namespace {

/// The octet buffer @p payload owns, moved out (empty for fixed-size
/// payloads).
Bytes take_octets(FramePayload& payload) {
  return std::visit(
      [](auto& p) -> Bytes {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, DataPayload> ||
                      std::is_same_v<P, UnknownPayload>) {
          return std::move(p.data);
        } else if constexpr (std::is_same_v<P, HeadersPayload> ||
                             std::is_same_v<P, PushPromisePayload> ||
                             std::is_same_v<P, ContinuationPayload>) {
          return std::move(p.fragment);
        } else if constexpr (std::is_same_v<P, GoawayPayload>) {
          return std::move(p.debug_data);
        } else {
          return Bytes{};
        }
      },
      payload);
}

}  // namespace

Frame materialize(const FrameView& view) {
  Frame f;
  std::vector<Bytes> none;
  materialize_into(view, f, none);
  return f;
}

void materialize_into(const FrameView& view, Frame& out,
                      std::vector<Bytes>& spare) {
  out.flags = view.flags;
  out.stream_id = view.stream_id;
  const auto& body = view.body;

  if (view.type() == FrameType::kSettings) {
    // Entries, not octets: keep the old entry list when there is one.
    std::vector<std::pair<std::uint16_t, std::uint32_t>> entries;
    if (auto* old = std::get_if<SettingsPayload>(&out.payload)) {
      entries = std::move(old->entries);
    } else if (Bytes old_octets = take_octets(out.payload);
               old_octets.capacity() != 0) {
      spare.push_back(std::move(old_octets));
    }
    entries.clear();
    entries.reserve(view.settings_entry_count());
    for (std::size_t i = 0; i < view.settings_entry_count(); ++i) {
      entries.push_back(view.setting_at(i));
    }
    out.payload.emplace<SettingsPayload>().entries = std::move(entries);
    return;
  }

  if (Bytes old = take_octets(out.payload); old.capacity() != 0) {
    spare.push_back(std::move(old));
  }
  // The payload's octet copy, in a spare buffer when one is left.
  const auto octets = [&] {
    Bytes b;
    if (!body.empty() && !spare.empty()) {
      b = std::move(spare.back());
      spare.pop_back();
    }
    b.assign(body.begin(), body.end());
    return b;
  };

  switch (view.type()) {
    case FrameType::kData:
      out.payload.emplace<DataPayload>().data = octets();
      return;
    case FrameType::kHeaders: {
      auto& hp = out.payload.emplace<HeadersPayload>();
      hp.priority = view.priority;
      hp.fragment = octets();
      return;
    }
    case FrameType::kPriority:
      out.payload.emplace<PriorityPayload>().info =
          view.priority.value_or(PriorityInfo{});
      return;
    case FrameType::kRstStream:
      out.payload.emplace<RstStreamPayload>().error = view.error;
      return;
    case FrameType::kSettings:
      return;  // handled above
    case FrameType::kPushPromise: {
      auto& pp = out.payload.emplace<PushPromisePayload>();
      pp.promised_stream_id = view.promised_stream_id;
      pp.fragment = octets();
      return;
    }
    case FrameType::kPing: {
      auto& pp = out.payload.emplace<PingPayload>();
      std::copy(body.begin(), body.end(), pp.opaque.begin());
      return;
    }
    case FrameType::kGoaway: {
      auto& gp = out.payload.emplace<GoawayPayload>();
      gp.last_stream_id = view.last_stream_id;
      gp.error = view.error;
      gp.debug_data = octets();
      return;
    }
    case FrameType::kWindowUpdate:
      out.payload.emplace<WindowUpdatePayload>().increment = view.increment;
      return;
    case FrameType::kContinuation:
      out.payload.emplace<ContinuationPayload>().fragment = octets();
      return;
  }
  auto& up = out.payload.emplace<UnknownPayload>();
  up.type = view.raw_type;
  up.data = octets();
}

}  // namespace h2r::h2
