#include "hpack/encoder.h"

#include "hpack/huffman.h"
#include "hpack/integer.h"

namespace h2r::hpack {
namespace {

// First-octet patterns, RFC 7541 §6.
constexpr std::uint8_t kIndexedPattern = 0x80;        // 1xxxxxxx, prefix 7
constexpr std::uint8_t kIncrementalPattern = 0x40;    // 01xxxxxx, prefix 6
constexpr std::uint8_t kWithoutIndexPattern = 0x00;   // 0000xxxx, prefix 4
constexpr std::uint8_t kNeverIndexPattern = 0x10;     // 0001xxxx, prefix 4
constexpr std::uint8_t kTableSizePattern = 0x20;      // 001xxxxx, prefix 5

}  // namespace

Encoder::Encoder(EncoderOptions options)
    : options_(options), table_(options.table_capacity) {}

void Encoder::reset(EncoderOptions options) {
  options_ = options;
  table_.reset(options.table_capacity);
  pending_capacity_update_.reset();
  capacity_epoch_ = 0;
}

void Encoder::set_table_capacity(std::uint32_t capacity) {
  table_.set_capacity(capacity);
  pending_capacity_update_ = capacity;
  ++capacity_epoch_;
}

void Encoder::encode(const HeaderList& headers, ByteWriter& out) {
  if (pending_capacity_update_) {
    encode_integer(out, *pending_capacity_update_, 5, kTableSizePattern);
    pending_capacity_update_.reset();
  }
  for (const auto& field : headers) encode_field(field, out);
}

Bytes Encoder::encode(const HeaderList& headers) {
  // Room for a typical response block, so encoding does not regrow it.
  constexpr std::size_t kBlockReserve = 1024;
  ByteWriter out(BufferPool::local().acquire(kBlockReserve));
  encode(headers, out);
  return out.take();
}

void Encoder::encode_field(const HeaderField& field, ByteWriter& out) {
  if (field.never_indexed) {
    // Sensitive fields are pinned to the never-indexed literal form so
    // intermediaries cannot promote them (§7.1.3).
    const MatchResult m =
        options_.policy == IndexingPolicy::kNone ? MatchResult{} : table_.find(field);
    encode_integer(out, m.index, 4, kNeverIndexPattern);
    if (m.index == 0) encode_string(field.name, out);
    encode_string(field.value, out);
    return;
  }

  switch (options_.policy) {
    case IndexingPolicy::kAggressive: {
      const MatchResult m = table_.find(field);
      if (m.value_matched) {
        encode_integer(out, m.index, 7, kIndexedPattern);
        return;
      }
      encode_integer(out, m.index, 6, kIncrementalPattern);
      if (m.index == 0) encode_string(field.name, out);
      encode_string(field.value, out);
      table_.insert(field);
      return;
    }
    case IndexingPolicy::kStaticOnly: {
      const MatchResult m = table_.find(field);
      if (m.value_matched) {
        encode_integer(out, m.index, 7, kIndexedPattern);
        return;
      }
      encode_integer(out, m.index, 4, kWithoutIndexPattern);
      if (m.index == 0) encode_string(field.name, out);
      encode_string(field.value, out);
      return;
    }
    case IndexingPolicy::kNone: {
      encode_integer(out, 0, 4, kWithoutIndexPattern);
      encode_string(field.name, out);
      encode_string(field.value, out);
      return;
    }
  }
}

void Encoder::encode_string(std::string_view s, ByteWriter& out) const {
  if (options_.use_huffman) {
    const std::size_t encoded = huffman_encoded_size(s);
    if (encoded < s.size()) {
      encode_integer(out, static_cast<std::uint32_t>(encoded), 7, 0x80);
      out.reserve(encoded);  // size is already known — one grow, not many
      huffman_encode(out, s);
      return;
    }
  }
  encode_integer(out, static_cast<std::uint32_t>(s.size()), 7, 0x00);
  out.write_string(s);
}

}  // namespace h2r::hpack
