// Non-owning view of one parsed frame (RFC 7540 §4.1-4.2, §6).
//
// `FrameParser` validates a frame in place and returns a FrameView: small
// fixed fields (priority info, error codes, window increments) are decoded
// eagerly, variable-length payloads (DATA bytes, header-block fragments,
// GOAWAY debug data) stay where they lie. Where that is depends on the
// entry:
// - `FrameParser::next_view()`: `body` aliases the parser's reassembly
//   buffer, which feed() copied the transport's bytes into. The view lives
//   until the parser's next feed()/next()/next_view() call.
// - `FrameParser::parse_in_place()`: `body` aliases the caller's delivery
//   itself, except for a frame that straddled two deliveries, which was
//   completed in the reassembly buffer. The view lives until the
//   InPlace guard's next next() call or its destruction; the guard cannot
//   outlive the scope that made it. The engine and client receive through
//   this entry, so a 16 KiB DATA frame costs a span, not a copy.
// `materialize()` converts a view into the classic owning `Frame` —
// bit-identical to what `FrameParser::next()` has always produced — for
// callers that must keep the frame beyond the view's lifetime (event
// logs, tests).
#pragma once

#include <optional>
#include <span>

#include "h2/frame.h"

namespace h2r::h2 {

struct FrameView {
  std::uint8_t raw_type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  /// Payload length field from the 9-octet header — the flow-controlled
  /// size for DATA, including any padding that `body` has stripped.
  std::uint32_t payload_wire_octets = 0;
  /// Type-specific variable-length payload, unpadded, aliasing the parse
  /// buffer: DATA bytes, HEADERS/PUSH_PROMISE/CONTINUATION header-block
  /// fragment (after the fixed prefix), raw SETTINGS entries, PING opaque
  /// octets, GOAWAY debug data, or an unknown frame's payload. Valid only
  /// as long as the view (see the file comment).
  std::span<const std::uint8_t> body;

  std::optional<PriorityInfo> priority;   ///< PRIORITY, HEADERS+PRIORITY
  std::uint32_t promised_stream_id = 0;   ///< PUSH_PROMISE
  std::uint32_t last_stream_id = 0;       ///< GOAWAY
  ErrorCode error = ErrorCode::kNoError;  ///< RST_STREAM, GOAWAY
  std::uint32_t increment = 0;            ///< WINDOW_UPDATE

  [[nodiscard]] FrameType type() const noexcept {
    return static_cast<FrameType>(raw_type);
  }
  [[nodiscard]] bool known_type() const noexcept {
    return raw_type <= static_cast<std::uint8_t>(FrameType::kContinuation);
  }
  [[nodiscard]] bool has_flag(std::uint8_t bit) const noexcept {
    return (flags & bit) != 0;
  }

  [[nodiscard]] std::size_t settings_entry_count() const noexcept {
    return body.size() / 6;
  }
  /// (identifier, value) of the i-th SETTINGS entry; caller bounds-checks
  /// against settings_entry_count().
  [[nodiscard]] std::pair<std::uint16_t, std::uint32_t> setting_at(
      std::size_t i) const noexcept {
    const std::uint8_t* p = body.data() + i * 6;
    const auto id = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
    const std::uint32_t value = (static_cast<std::uint32_t>(p[2]) << 24) |
                                (static_cast<std::uint32_t>(p[3]) << 16) |
                                (static_cast<std::uint32_t>(p[4]) << 8) |
                                static_cast<std::uint32_t>(p[5]);
    return {id, value};
  }
};

/// Owning Frame built from a view — the copies happen here, and only for
/// callers that ask.
[[nodiscard]] Frame materialize(const FrameView& view);

}  // namespace h2r::h2
