// HPACK decoder (RFC 7541 §3, §6).
//
// Decodes one complete header block into a HeaderList while maintaining the
// dynamic table. All failures are connection-fatal COMPRESSION_ERRORs per
// RFC 7540 §4.3 — a desynchronized table cannot be resynchronized.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "hpack/header_field.h"
#include "hpack/table.h"
#include "util/bytes.h"
#include "util/status.h"

namespace h2r::hpack {

struct DecoderOptions {
  /// Our SETTINGS_HEADER_TABLE_SIZE: ceiling for size-update instructions.
  std::uint32_t max_table_capacity = kDefaultDynamicTableCapacity;
  /// Our SETTINGS_MAX_HEADER_LIST_SIZE (uncompressed §4.1 size bound);
  /// nullopt = unlimited, the value most scanned sites advertise (Table VII).
  std::optional<std::size_t> max_header_list_size;
};

class Decoder {
 public:
  explicit Decoder(DecoderOptions options = {});

  /// Back to the state of `Decoder(options)`, keeping the table's storage.
  void reset(DecoderOptions options);

  /// Decodes one full header block. Partial blocks (split across
  /// CONTINUATION frames) must be reassembled by the caller first, per
  /// RFC 7540 §4.3.
  [[nodiscard]] Result<HeaderList> decode(std::span<const std::uint8_t> block);

  /// decode() into @p out, overwriting its fields in place so a reused list
  /// keeps its entries' string capacity. On success @p out holds exactly
  /// the block's fields; on failure its contents are unspecified. The
  /// table sees the same instructions either way.
  [[nodiscard]] Status decode_into(std::span<const std::uint8_t> block,
                                   HeaderList& out);

  /// Applies a new SETTINGS_HEADER_TABLE_SIZE we advertised and the peer
  /// acknowledged: size-update instructions above this are errors.
  void set_max_table_capacity(std::uint32_t capacity);

  [[nodiscard]] const IndexTable& table() const noexcept { return table_; }

 private:
  [[nodiscard]] Status decode_string(ByteReader& in, std::string& out) const;

  DecoderOptions options_;
  IndexTable table_;
};

}  // namespace h2r::hpack
