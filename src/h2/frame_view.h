// Non-owning view of one parsed frame (RFC 7540 §4.1-4.2, §6).
//
// `FrameParser` validates a frame in place and returns a FrameView: small
// fixed fields (priority info, error codes, window increments) are decoded
// eagerly, variable-length payloads (DATA bytes, header-block fragments,
// GOAWAY debug data) stay where they lie. Where that is depends on the
// entry:
// - `FrameParser::parse_in_place()`, the entry the engine, the client and
//   the tests parse through: `body` aliases the caller's delivery itself,
//   except for a frame that straddled two deliveries (or that a receiver
//   left unread when it stopped early), which sits in the parser's
//   reassembly buffer. The view lives until the InPlace guard's next
//   next() call or its destruction; the guard cannot outlive the scope
//   that made it. So a 16 KiB DATA frame costs a span, not a copy.
// - `FrameParser::next_view()`, the copying entry kept for perfbench's
//   capture replay and the in-place differential test: `body` aliases the
//   reassembly buffer that feed() copied the transport's bytes into. The
//   view lives until the parser's next feed()/next_view() call.
// `materialize()` converts a view into an owning `Frame`, for callers that
// must keep the frame beyond the view's lifetime (event logs, tests).
#pragma once

#include <optional>
#include <span>
#include <vector>

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

/// Rewrites @p out as materialize(@p view) would build it, reusing storage
/// instead of allocating: the octet buffer of @p out's old payload (DATA
/// bytes, a header-block fragment, GOAWAY debug data) goes onto @p spare,
/// the new payload's octets are copied into a buffer taken from it, and a
/// SETTINGS frame rewritten as SETTINGS keeps its entry list. An event log
/// that rewrites its slots through one spare list stops allocating once
/// every buffer has grown to its largest payload.
void materialize_into(const FrameView& view, Frame& out,
                      std::vector<Bytes>& spare);

}  // namespace h2r::h2
