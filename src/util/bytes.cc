#include "util/bytes.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace h2r {

void ByteWriter::write_u24(std::uint32_t v) {
  if (v > 0xFFFFFFu) {
    throw std::invalid_argument("write_u24: value exceeds 24 bits");
  }
  const std::uint8_t be[3] = {static_cast<std::uint8_t>(v >> 16),
                              static_cast<std::uint8_t>(v >> 8),
                              static_cast<std::uint8_t>(v)};
  buf_.insert(buf_.end(), be, be + sizeof be);
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool(kLocalSpare, kLocalCapacity);
  return pool;
}

Bytes BufferPool::acquire(std::size_t n) {
  if (n > max_capacity_ && burst_.capacity() >= n) {
    Bytes b = std::move(burst_);
    burst_ = Bytes();
    b.clear();
    return b;
  }
  const std::size_t most = std::max(8 * n, std::size_t{8 * 1024});
  const auto fits = [&](const Bytes& b) {
    return b.capacity() >= n && b.capacity() <= most;
  };
  // The most recently released buffer usually fits (endpoints cycle the
  // same sizes round after round); otherwise take the smallest that does.
  std::size_t pick = spare_.size();
  if (!spare_.empty() && fits(spare_.back())) {
    pick = spare_.size() - 1;
  } else {
    for (std::size_t i = 0; i < spare_.size(); ++i) {
      if (!fits(spare_[i])) continue;
      if (pick == spare_.size() ||
          spare_[i].capacity() < spare_[pick].capacity()) {
        pick = i;
      }
    }
  }
  if (pick == spare_.size()) {
    Bytes fresh;
    fresh.reserve(n);
    return fresh;
  }
  Bytes b = std::move(spare_[pick]);
  if (pick + 1 != spare_.size()) spare_[pick] = std::move(spare_.back());
  spare_.pop_back();
  b.clear();
  return b;
}

Result<std::uint8_t> ByteReader::read_u8() {
  if (remaining() < 1) return OutOfRangeError("read_u8 past end");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::read_u16() {
  if (remaining() < 2) return OutOfRangeError("read_u16 past end");
  auto hi = data_[pos_];
  auto lo = data_[pos_ + 1];
  pos_ += 2;
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

Result<std::uint32_t> ByteReader::read_u24() {
  if (remaining() < 3) return OutOfRangeError("read_u24 past end");
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

Result<std::uint32_t> ByteReader::read_u32() {
  if (remaining() < 4) return OutOfRangeError("read_u32 past end");
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

Result<std::span<const std::uint8_t>> ByteReader::read_bytes(std::size_t n) {
  if (remaining() < n) return OutOfRangeError("read_bytes past end");
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

Result<std::string> ByteReader::read_string(std::size_t n) {
  H2R_ASSIGN_OR_RETURN(auto view, read_bytes(n));
  return std::string(view.begin(), view.end());
}

Status ByteReader::skip(std::size_t n) {
  if (remaining() < n) return OutOfRangeError("skip past end");
  pos_ += n;
  return OkStatus();
}

Result<std::uint8_t> ByteReader::peek_u8() const {
  if (remaining() < 1) return OutOfRangeError("peek_u8 past end");
  return data_[pos_];
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (auto b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Result<Bytes> from_hex(std::string_view hex) {
  Bytes out;
  int nibble = -1;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return InvalidArgumentError("from_hex: non-hex character");
    }
    if (nibble < 0) {
      nibble = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((nibble << 4) | v));
      nibble = -1;
    }
  }
  if (nibble >= 0) return InvalidArgumentError("from_hex: odd digit count");
  return out;
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

}  // namespace h2r
