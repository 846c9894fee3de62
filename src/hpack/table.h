// HPACK indexing tables (RFC 7541 §2.3).
//
// The unified address space maps index 1..61 onto the fixed static table and
// 62.. onto the dynamic table (most recently inserted first). Both encoder
// and decoder embed an IndexTable; keeping insertion/eviction here is what
// guarantees the two sides stay synchronized as long as they see the same
// instruction stream.
//
// Lookup is hash-based: the static table is indexed once globally, and the
// dynamic table gets a two-level index (name -> bucket, value -> queue
// inside the bucket) built the first time find() sees it past a small size
// threshold and maintained incrementally across insert/evict from then on.
// find() then costs a handful of hash probes and zero allocations, while
// decoder-side tables (which never call find()) and short-lived
// per-connection tables pay nothing for it. The queues hold absolute
// insertion ids; an entry's current index is derived from its id and the
// running insertion count, so nothing is rewritten when indices shift on
// insert. find() returns exactly what the original linear scan did: the
// lowest-index full (name, value) match anywhere (static before dynamic),
// else the lowest-index name match.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hpack/header_field.h"
#include "util/status.h"

namespace h2r::hpack {

/// Number of entries in the RFC 7541 Appendix A static table.
inline constexpr std::uint32_t kStaticTableSize = 61;

/// Default SETTINGS_HEADER_TABLE_SIZE (RFC 7540 §6.5.2).
inline constexpr std::uint32_t kDefaultDynamicTableCapacity = 4096;

/// Entry of the static table; values may be empty.
const HeaderField& static_table_entry(std::uint32_t index_1based);

/// Result of a table lookup during encoding.
struct MatchResult {
  std::uint32_t index = 0;   ///< unified index, 0 = no match at all
  bool value_matched = false;  ///< true: full (name,value) match
};

/// The dynamic table plus unified static+dynamic addressing.
class IndexTable {
 public:
  explicit IndexTable(std::uint32_t capacity = kDefaultDynamicTableCapacity)
      : capacity_(capacity) {}

  /// Back to an empty table of @p capacity with zeroed lifetime counts —
  /// indistinguishable from `IndexTable(capacity)` — keeping the entry
  /// slots and their string buffers for the next connection.
  void reset(std::uint32_t capacity);

  /// Entry at unified @p index (1-based), valid until the next insert or
  /// capacity change. Errors on 0 or out-of-range — a COMPRESSION_ERROR at
  /// the connection level for a decoder.
  [[nodiscard]] Result<const HeaderField*> at(std::uint32_t index) const;

  /// Inserts at the head of the dynamic table, evicting from the tail until
  /// the size constraint holds (§4.4). An entry larger than the capacity
  /// empties the table and inserts nothing — that is legal.
  void insert(const HeaderField& field);

  /// §4.3: lowers/raises capacity, evicting as needed. Called on dynamic
  /// table size update instructions and on SETTINGS_HEADER_TABLE_SIZE.
  void set_capacity(std::uint32_t capacity);

  /// Best match for @p field in the unified space. Prefers a full
  /// (name, value) match; otherwise any name match.
  [[nodiscard]] MatchResult find(const HeaderField& field) const;

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size_octets() const noexcept { return size_octets_; }
  [[nodiscard]] std::size_t dynamic_entry_count() const noexcept {
    return count_;
  }
  /// Lifetime totals — deltas across an encode/decode call tell a tracer how
  /// many dynamic-table insertions/evictions one header block caused.
  [[nodiscard]] std::uint64_t insert_count() const noexcept {
    return insert_count_;
  }
  [[nodiscard]] std::uint64_t eviction_count() const noexcept {
    return eviction_count_;
  }

 private:
  /// Per-name index bucket. Queues hold absolute insertion ids, ascending
  /// (front = oldest). Eviction always removes the globally oldest entry,
  /// so per-queue removal is a pop_front; the most recent match is back().
  struct NameBucket {
    std::deque<std::uint64_t> any;  ///< every entry with this name
    std::unordered_map<std::string, std::deque<std::uint64_t>> by_value;
  };

  void evict_until_fits();
  void drop_oldest();
  /// Doubles the ring, moving the live entries to the front in age order.
  void grow();
  /// Dynamic entry @p i, 0 = most recent (unified index 62 + i).
  [[nodiscard]] const HeaderField& entry(std::size_t i) const noexcept {
    return ring_[(oldest_ + count_ - 1 - i) & (ring_.size() - 1)];
  }
  void index_insert(const HeaderField& field, std::uint64_t abs) const;
  void build_index() const;

  /// Unified index of the dynamic entry with absolute id @p abs.
  [[nodiscard]] std::uint32_t index_of_abs(std::uint64_t abs) const noexcept {
    return kStaticTableSize + 1 +
           static_cast<std::uint32_t>(insert_count_ - 1 - abs);
  }

  // The dynamic table as a ring over ring_ (size a power of two): count_
  // live entries starting at slot oldest_, newest last. Evicted slots keep
  // their strings, so an insert into a warm ring assigns into existing
  // buffers instead of allocating.
  std::vector<HeaderField> ring_;
  std::size_t oldest_ = 0;
  std::size_t count_ = 0;
  std::uint32_t capacity_;
  std::size_t size_octets_ = 0;
  std::uint64_t insert_count_ = 0;  ///< absolute id of the next insertion
  std::uint64_t eviction_count_ = 0;

  /// Dynamic tables at or below this entry count are scanned linearly;
  /// the hash index only pays for itself once the table outgrows a single
  /// connection's worth of response headers.
  static constexpr std::size_t kIndexThreshold = 16;

  // Lazily built lookup index (mutable: find() is logically const).
  mutable bool indexed_ = false;
  mutable std::unordered_map<std::string, NameBucket> by_name_;
};

}  // namespace h2r::hpack
