// Bounds-checked byte-stream reading and writing.
//
// Every wire structure in HTTP/2 is big-endian and fixed-width; these two
// small classes are the only place in the library that touches raw byte
// order, so frame and HPACK codecs stay free of shifting arithmetic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace h2r {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian integers and raw octets to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Wraps an existing buffer; further writes append to it.
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  /// Ensures capacity for @p n more octets — codecs that know a frame's
  /// size up front call this once instead of growing per write. Grows
  /// geometrically: reserving the exact size per appended frame would
  /// reallocate (and copy) the whole buffer on every append.
  void reserve(std::size_t n) {
    const std::size_t want = buf_.size() + n;
    if (want > buf_.capacity()) {
      buf_.reserve(std::max(want, buf_.capacity() * 2));
    }
  }

  void write_u8(std::uint8_t v) { buf_.push_back(v); }

  void write_u16(std::uint16_t v) {
    const std::uint8_t be[2] = {static_cast<std::uint8_t>(v >> 8),
                                static_cast<std::uint8_t>(v)};
    buf_.insert(buf_.end(), be, be + sizeof be);
  }

  /// 24-bit length field used by the HTTP/2 frame header. Top byte of @p v
  /// must be zero (checked).
  void write_u24(std::uint32_t v);

  void write_u32(std::uint32_t v) {
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    buf_.insert(buf_.end(), be, be + sizeof be);
  }

  void write_u64(std::uint64_t v) {
    const std::uint8_t be[8] = {
        static_cast<std::uint8_t>(v >> 56), static_cast<std::uint8_t>(v >> 48),
        static_cast<std::uint8_t>(v >> 40), static_cast<std::uint8_t>(v >> 32),
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    buf_.insert(buf_.end(), be, be + sizeof be);
  }

  void write_bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void write_string(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Appends @p n copies of @p octet in one grow.
  void write_fill(std::size_t n, std::uint8_t octet) {
    buf_.insert(buf_.end(), n, octet);
  }

  /// Appends @p n zero octets (frame padding) in one grow.
  void write_zeros(std::size_t n) { write_fill(n, 0); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_.capacity();
  }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }

  /// Moves the accumulated buffer out; the writer is empty afterwards.
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Recycles transport and header-block buffers. An engine or client drains
/// its output as a moved-out Bytes; handing the drained vector back via
/// release() lets the next round's output writer start with the old
/// capacity instead of reallocating from scratch on every frame flight.
///
/// A pool keeps at most max_spare buffers, and none whose capacity exceeds
/// max_capacity, so the memory it pins stays bounded however many
/// endpoints feed it. Beside them it keeps one burst buffer: the largest
/// released buffer above max_capacity and at most kBurstCapacity octets,
/// handed out only for asks above max_capacity (an engine presizing its
/// output for a flow-control or priority burst).
class BufferPool {
 public:
  explicit BufferPool(std::size_t max_spare = 4,
                      std::size_t max_capacity = SIZE_MAX) noexcept
      : max_spare_(max_spare), max_capacity_(max_capacity) {}

  /// The calling thread's pool, shared by every ClientConnection and
  /// Http2Server on it: a connection that ends leaves its buffers warm for
  /// the next one. Keeps up to kLocalSpare buffers of at most
  /// kLocalCapacity octets each.
  static BufferPool& local();
  static constexpr std::size_t kLocalSpare = 16;
  static constexpr std::size_t kLocalCapacity = 256 * 1024;
  /// The burst buffer's cap: a scan's priority probe opens the connection
  /// window on 384 KiB of pinned responses.
  static constexpr std::size_t kBurstCapacity = 1024 * 1024;
  /// What an endpoint asks for when it re-arms its output writer: room for
  /// a round of control frames and requests without regrowing.
  static constexpr std::size_t kOutputFloor = 1024;

  /// The most recently released buffer (cleared), or a new empty one.
  [[nodiscard]] Bytes acquire() {
    if (spare_.empty()) return {};
    Bytes b = std::move(spare_.back());
    spare_.pop_back();
    b.clear();
    return b;
  }

  /// A cleared buffer sized for @p n octets: for an ask above max_capacity
  /// the burst buffer if it is big enough, otherwise a spare holding
  /// between n and max(8n, 8 KiB) octets (the most recent if it fits, else
  /// the smallest), else a new one reserved to n.
  /// Asking by size keeps big buffers with the endpoints that emit DATA
  /// bursts instead of parking them in idle endpoints' writers.
  [[nodiscard]] Bytes acquire(std::size_t n);

  /// Returns a drained buffer to the pool; empty ones and ones above the
  /// capacity cap are simply freed. A full pool keeps the smaller of @p b
  /// and its largest spare: endpoints re-arm their writers with small
  /// asks (kOutputFloor) far more often than they grow big ones, so a
  /// pool silted up with big buffers would miss on every re-arm.
  void release(Bytes b) {
    if (b.capacity() == 0) return;
    if (b.capacity() > max_capacity_) {
      if (b.capacity() <= kBurstCapacity && b.capacity() > burst_.capacity()) {
        burst_ = std::move(b);
      }
      return;
    }
    if (spare_.size() < max_spare_) {
      if (spare_.capacity() == 0) spare_.reserve(max_spare_);
      spare_.push_back(std::move(b));
      return;
    }
    const auto largest = std::max_element(
        spare_.begin(), spare_.end(), [](const Bytes& x, const Bytes& y) {
          return x.capacity() < y.capacity();
        });
    if (largest != spare_.end() && b.capacity() < largest->capacity()) {
      *largest = std::move(b);
    }
  }

 private:
  std::size_t max_spare_;
  std::size_t max_capacity_;
  std::vector<Bytes> spare_;
  Bytes burst_;
};

/// Reads big-endian integers and octet runs from a non-owning view.
/// All reads are bounds-checked and return Status/Result on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool empty() const noexcept { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  [[nodiscard]] Result<std::uint8_t> read_u8();
  [[nodiscard]] Result<std::uint16_t> read_u16();
  [[nodiscard]] Result<std::uint32_t> read_u24();
  [[nodiscard]] Result<std::uint32_t> read_u32();

  /// Returns a view over the next @p n octets and advances past them.
  [[nodiscard]] Result<std::span<const std::uint8_t>> read_bytes(std::size_t n);

  /// Copies the next @p n octets into a string.
  [[nodiscard]] Result<std::string> read_string(std::size_t n);

  /// Advances without delivering data (e.g. skipping frame padding).
  [[nodiscard]] Status skip(std::size_t n);

  /// Peeks the next octet without consuming it.
  [[nodiscard]] Result<std::uint8_t> peek_u8() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Lowercase hex rendering ("dead beef"-style, no separator) for tests/logs.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses a hex string (whitespace ignored). Returns error on odd length or
/// non-hex characters.
Result<Bytes> from_hex(std::string_view hex);

/// Convenience: string literal -> byte vector.
Bytes bytes_of(std::string_view s);

}  // namespace h2r
