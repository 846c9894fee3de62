// HPACK encoder (RFC 7541 §6) with a configurable indexing policy.
//
// The policy knob exists because the paper's Figures 4/5 hinge on exactly
// this dimension of server behaviour: GSE indexes aggressively (ratio < 0.3),
// while Nginx/Tengine never insert *response* headers into the dynamic table,
// so their response HEADERS never shrink (ratio ~ 1). Encoding the same
// header list twice under each policy reproduces those families.
#pragma once

#include <cstdint>
#include <optional>

#include "hpack/header_field.h"
#include "hpack/table.h"
#include "util/bytes.h"

namespace h2r::hpack {

/// How eagerly the encoder uses the dynamic table.
enum class IndexingPolicy : std::uint8_t {
  /// Full RFC behaviour: reference matches, insert misses (GSE, LiteSpeed,
  /// H2O, nghttpd, Apache).
  kAggressive,
  /// Reference static-table matches only; never insert into the dynamic
  /// table (observed Nginx/Tengine response-side behaviour — Section V-G).
  kStaticOnly,
  /// Emit everything as literal-without-indexing with no table references
  /// at all (pathological lower bound, used in ablation benches).
  kNone,
};

struct EncoderOptions {
  IndexingPolicy policy = IndexingPolicy::kAggressive;
  bool use_huffman = true;
  /// Initial dynamic table capacity (peer's SETTINGS_HEADER_TABLE_SIZE).
  std::uint32_t table_capacity = kDefaultDynamicTableCapacity;
};

/// Stateful header-block encoder. One per connection direction.
class Encoder {
 public:
  explicit Encoder(EncoderOptions options = {});

  /// Back to the state of `Encoder(options)` — empty table, no pending
  /// size update, capacity epoch 0 — keeping the table's storage.
  void reset(EncoderOptions options);

  /// Encodes @p headers as one header block, appending to @p out.
  void encode(const HeaderList& headers, ByteWriter& out);

  /// Convenience: encode into a buffer from the thread's BufferPool (hand
  /// it back with BufferPool::local().release() once shipped).
  [[nodiscard]] Bytes encode(const HeaderList& headers);

  /// Schedules a dynamic table size update instruction (§6.3) to be emitted
  /// at the start of the next header block, and resizes our table.
  void set_table_capacity(std::uint32_t capacity);

  /// Counts set_table_capacity() calls since construction or reset().
  [[nodiscard]] std::uint64_t capacity_epoch() const noexcept {
    return capacity_epoch_;
  }
  /// True while a §6.3 size-update instruction is queued for the next
  /// block.
  [[nodiscard]] bool has_pending_capacity_update() const noexcept {
    return pending_capacity_update_.has_value();
  }
  /// True while the encoder is in its just-constructed state: nothing
  /// inserted, nothing evicted, never resized, no size update queued. Any
  /// two pristine encoders with the same options encode a header list to
  /// the same bytes, so a block encoded while pristine that leaves the
  /// encoder pristine can be replayed by any other pristine encoder (see
  /// server::SharedBlockCache).
  [[nodiscard]] bool pristine() const noexcept {
    return table_.insert_count() == 0 && table_.eviction_count() == 0 &&
           capacity_epoch_ == 0 && !pending_capacity_update_.has_value();
  }

  [[nodiscard]] const IndexTable& table() const noexcept { return table_; }
  [[nodiscard]] const EncoderOptions& options() const noexcept { return options_; }

 private:
  void encode_field(const HeaderField& field, ByteWriter& out);
  void encode_string(std::string_view s, ByteWriter& out) const;

  EncoderOptions options_;
  IndexTable table_;
  std::optional<std::uint32_t> pending_capacity_update_;
  std::uint64_t capacity_epoch_ = 0;
};

}  // namespace h2r::hpack
