// Frame <-> bytes conversion (RFC 7540 §4.1-4.2, §6).
//
// `serialize_frame` is pure. `FrameParser` is incremental: hand it arbitrary
// byte chunks (as a transport delivers them) through `parse_in_place()`,
// which parses each chunk where it lies and hands out complete frames as
// views; `materialize()` (frame_view.h) turns a view into an owning Frame.
// This is the entry the engine, the client and every test parse through.
// The copying `feed()` + `next_view()` entry is kept for two callers only:
// perfbench's capture replay and the in-place differential test, which uses
// it as its oracle. Violations that RFC 7540 defines as connection errors
// (oversized frames, malformed fixed-size payloads, bad padding) surface as
// error Results.
#pragma once

#include <deque>
#include <optional>

#include "h2/frame.h"
#include "h2/frame_view.h"
#include "util/bytes.h"
#include "util/status.h"

namespace h2r::h2 {

/// Serializes one frame, including its 9-octet header, appending to @p out.
/// This is the zero-copy path: endpoints serialize straight into their
/// transport output buffer instead of materializing a per-frame vector.
/// Returns the number of octets written (the frame's wire length).
std::size_t serialize_frame_into(ByteWriter& out, const Frame& frame);

/// Writes just the 9-octet frame header (§4.1). The engine's DATA emission
/// fast path writes this and then synthesizes the payload directly into
/// @p out, skipping the intermediate Frame entirely.
void write_frame_header(ByteWriter& out, std::size_t length, FrameType type,
                        std::uint8_t flagbits, std::uint32_t stream_id);

/// Writes a GOAWAY frame (§6.8) carrying @p debug straight into @p out, as
/// serialize_frame_into would write the equivalent Frame, without building
/// one. Returns the frame's wire length.
std::size_t write_goaway(ByteWriter& out, std::uint32_t last_stream_id,
                         ErrorCode error, std::span<const std::uint8_t> debug);

/// Serializes one frame, including its 9-octet header.
/// Throws std::invalid_argument for unserializable model states (payload
/// larger than 2^24-1, pad >= payload+1, increments with the reserved bit).
Bytes serialize_frame(const Frame& frame);

/// Serializes a sequence of frames back-to-back.
Bytes serialize_frames(std::span<const Frame> frames);

/// Where in the inbound byte stream a parse error happened — kept by the
/// parser so the connection's error taxonomy (and the wiretap parse_error
/// event) can name the offending frame instead of just "parse error".
struct ParseErrorContext {
  /// Octet offset, from the first octet ever fed, of the frame whose
  /// header or payload failed to parse.
  std::uint64_t frame_offset = 0;
  /// Raw type octet from the offending frame header.
  std::uint8_t frame_type = 0;
  /// False when the stream died before a full 9-octet header was read
  /// (frame_type is meaningless then).
  bool type_known = false;
};

/// Incremental parser for one direction of a connection.
class FrameParser {
 public:
  /// @param max_frame_size our advertised SETTINGS_MAX_FRAME_SIZE: inbound
  ///        frames longer than this are FRAME_SIZE_ERRORs.
  explicit FrameParser(std::uint32_t max_frame_size = kDefaultMaxFrameSize);

  /// Back to the just-constructed state for a new connection. The
  /// reassembly buffer is handed to the thread's BufferPool, where the
  /// next connection's first feed() finds it warm.
  void reset(std::uint32_t max_frame_size = kDefaultMaxFrameSize);

  /// Hands the reassembly buffer to the thread's BufferPool, keeping only
  /// the octets not yet parsed; the next feed() takes a buffer back out.
  void release_buffer();

  /// Appends transport bytes to the internal reassembly buffer (the
  /// copying entry; see the file comment for its two callers).
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame of what feed() buffered, validated in
  /// place: the returned FrameView's `body` aliases the internal buffer and
  /// is valid only until the next feed() or next_view() call.
  /// - nullopt: need more bytes.
  /// - Result with error: stream is poisoned (connection error); subsequent
  ///   calls keep returning the same error.
  [[nodiscard]] std::optional<Result<FrameView>> next_view();

  class InPlace;

  /// In-place entry: parses @p bytes where the caller holds them. The
  /// returned guard hands out the same frames and errors, in the same
  /// order, as feed(bytes) followed by next_view() calls, and fed_total(),
  /// unparsed_bytes(), poisoning and error_context() read exactly as they
  /// would on that path, after every call. Only two things are copied into
  /// the reassembly buffer: the octets that complete a frame already
  /// partly buffered, and, when the guard is destroyed, whatever it did not
  /// hand out (a trailing partial frame, or the whole unparsed rest when
  /// the caller stopped early).
  ///
  /// Lifetime: @p bytes must stay valid and unmodified while the guard
  /// lives. A view from InPlace::next() aliases either @p bytes or the
  /// reassembly buffer and is valid only until the guard's next next() or
  /// its destruction, whichever comes first; materialize() a frame that
  /// must outlive that. While the guard lives, the parser takes no feed(),
  /// next_view(), release_buffer(), reset() or second parse_in_place(); its
  /// const accessors stay usable.
  [[nodiscard]] InPlace parse_in_place(std::span<const std::uint8_t> bytes);

  /// Raises the acceptable frame size (after the peer ACKs our SETTINGS).
  void set_max_frame_size(std::uint32_t size) { max_frame_size_ = size; }

  /// Octets held in the reassembly buffer (parsed or not).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buf_.size(); }

  /// Total octets ever fed to this parser (consumed or still buffered).
  [[nodiscard]] std::uint64_t fed_total() const noexcept { return fed_total_; }
  /// Octets fed but not yet returned as frames (buffered, or still in the
  /// delivery an InPlace guard is parsing).
  [[nodiscard]] std::size_t unparsed_bytes() const noexcept {
    return buf_.size() - consumed_ + borrowed_.size();
  }

  /// Populated once the parser poisons; empty while the stream is healthy.
  [[nodiscard]] const std::optional<ParseErrorContext>& error_context()
      const noexcept {
    return error_context_;
  }

 private:
  /// The one frame parser both entries share: validates the frame at the
  /// head of @p avail (the next unparsed octets of the stream), poisoning
  /// the parser on error. nullopt when @p avail holds no complete frame.
  /// Sets @p taken to the octets the frame occupies (0 when none).
  [[nodiscard]] std::optional<Result<FrameView>> parse_front(
      std::span<const std::uint8_t> avail, std::size_t& taken);
  /// next_view() without the poison check: parses the buffer's head frame.
  [[nodiscard]] std::optional<Result<FrameView>> next_buffered();
  [[nodiscard]] std::optional<Result<FrameView>> next_in_place();
  /// Moves octets from the borrowed delivery into the buffer until the
  /// buffered head frame is complete, rejected, or the delivery runs out.
  void top_up();
  /// Appends @p bytes to the reassembly buffer (no fed_total_ change).
  void append(std::span<const std::uint8_t> bytes);
  /// Ends an in-place parse: buffers what it did not hand out.
  void stash_borrowed();

  [[nodiscard]] Result<FrameView> parse_view(std::uint8_t type,
                                             std::uint8_t flagbits,
                                             std::uint32_t stream_id,
                                             std::span<const std::uint8_t> payload);

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // bytes of buf_ already parsed
  std::uint64_t fed_total_ = 0;  // octets ever fed (for error offsets)
  // Unparsed rest of the delivery an InPlace guard is parsing.
  std::span<const std::uint8_t> borrowed_;
  bool in_place_ = false;  // an InPlace guard is alive
  std::uint32_t max_frame_size_;
  std::optional<Status> poisoned_;
  std::optional<ParseErrorContext> error_context_;
};

/// Scope guard of one in-place parse (see FrameParser::parse_in_place). It
/// cannot be copied or moved, so no borrow outlives the scope that made it.
class FrameParser::InPlace {
 public:
  InPlace(const InPlace&) = delete;
  InPlace& operator=(const InPlace&) = delete;
  ~InPlace() { parser_.stash_borrowed(); }

  /// The next frame of the delivery, with next_view()'s result contract.
  [[nodiscard]] std::optional<Result<FrameView>> next() {
    return parser_.next_in_place();
  }

 private:
  friend class FrameParser;
  explicit InPlace(FrameParser& parser) : parser_(parser) {}
  FrameParser& parser_;
};

}  // namespace h2r::h2
