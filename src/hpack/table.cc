#include "hpack/table.h"

#include <array>
#include <stdexcept>

namespace h2r::hpack {
namespace {

/// RFC 7541 Appendix A, verbatim.
const std::array<HeaderField, kStaticTableSize>& static_table() {
  static const std::array<HeaderField, kStaticTableSize> kTable = {{
      {":authority", ""},
      {":method", "GET"},
      {":method", "POST"},
      {":path", "/"},
      {":path", "/index.html"},
      {":scheme", "http"},
      {":scheme", "https"},
      {":status", "200"},
      {":status", "204"},
      {":status", "206"},
      {":status", "304"},
      {":status", "400"},
      {":status", "404"},
      {":status", "500"},
      {"accept-charset", ""},
      {"accept-encoding", "gzip, deflate"},
      {"accept-language", ""},
      {"accept-ranges", ""},
      {"accept", ""},
      {"access-control-allow-origin", ""},
      {"age", ""},
      {"allow", ""},
      {"authorization", ""},
      {"cache-control", ""},
      {"content-disposition", ""},
      {"content-encoding", ""},
      {"content-language", ""},
      {"content-length", ""},
      {"content-location", ""},
      {"content-range", ""},
      {"content-type", ""},
      {"cookie", ""},
      {"date", ""},
      {"etag", ""},
      {"expect", ""},
      {"expires", ""},
      {"from", ""},
      {"host", ""},
      {"if-match", ""},
      {"if-modified-since", ""},
      {"if-none-match", ""},
      {"if-range", ""},
      {"if-unmodified-since", ""},
      {"last-modified", ""},
      {"link", ""},
      {"location", ""},
      {"max-forwards", ""},
      {"proxy-authenticate", ""},
      {"proxy-authorization", ""},
      {"range", ""},
      {"referer", ""},
      {"refresh", ""},
      {"retry-after", ""},
      {"server", ""},
      {"set-cookie", ""},
      {"strict-transport-security", ""},
      {"transfer-encoding", ""},
      {"user-agent", ""},
      {"vary", ""},
      {"via", ""},
      {"www-authenticate", ""},
  }};
  return kTable;
}

/// Hash index over the static table, built once: name -> (lowest name
/// index, value -> lowest full-match index). Lookups through this return
/// exactly what a front-to-back linear scan of Appendix A would.
struct StaticIndex {
  struct Bucket {
    std::uint32_t name_index = 0;
    std::unordered_map<std::string, std::uint32_t> by_value;
  };
  std::unordered_map<std::string, Bucket> by_name;

  StaticIndex() {
    const auto& st = static_table();
    for (std::uint32_t i = 0; i < st.size(); ++i) {
      Bucket& b = by_name[st[i].name];
      if (b.name_index == 0) b.name_index = i + 1;
      b.by_value.try_emplace(st[i].value, i + 1);
    }
  }
};

const StaticIndex& static_index() {
  static const StaticIndex idx;
  return idx;
}

}  // namespace

const HeaderField& static_table_entry(std::uint32_t index_1based) {
  if (index_1based < 1 || index_1based > kStaticTableSize) {
    throw std::out_of_range("static_table_entry index");
  }
  return static_table()[index_1based - 1];
}

Result<const HeaderField*> IndexTable::at(std::uint32_t index) const {
  if (index == 0) {
    return CompressionFailureError("HPACK index 0 is invalid");
  }
  if (index <= kStaticTableSize) {
    return &static_table()[index - 1];
  }
  const std::uint32_t dyn = index - kStaticTableSize - 1;
  if (dyn >= count_) {
    return CompressionFailureError("HPACK index beyond dynamic table");
  }
  return &entry(dyn);
}

void IndexTable::reset(std::uint32_t capacity) {
  capacity_ = capacity;
  oldest_ = 0;
  count_ = 0;
  size_octets_ = 0;
  insert_count_ = 0;
  eviction_count_ = 0;
  indexed_ = false;
  by_name_.clear();
}

void IndexTable::insert(const HeaderField& field) {
  const std::size_t entry_size = field.hpack_size();
  if (entry_size > capacity_) {
    // §4.4: too-large entry flushes the table and is itself not inserted.
    oldest_ = 0;
    count_ = 0;
    size_octets_ = 0;
    by_name_.clear();
    return;
  }
  if (indexed_) index_insert(field, insert_count_);
  ++insert_count_;
  if (count_ == ring_.size()) grow();
  HeaderField& slot = ring_[(oldest_ + count_) & (ring_.size() - 1)];
  slot.name.assign(field.name);
  slot.value.assign(field.value);
  slot.never_indexed = field.never_indexed;
  ++count_;
  size_octets_ += entry_size;
  evict_until_fits();
}

void IndexTable::grow() {
  std::vector<HeaderField> bigger(ring_.empty() ? 8 : 2 * ring_.size());
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(ring_[(oldest_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(bigger);
  oldest_ = 0;
}

void IndexTable::set_capacity(std::uint32_t capacity) {
  capacity_ = capacity;
  evict_until_fits();
}

void IndexTable::evict_until_fits() {
  while (size_octets_ > capacity_) drop_oldest();
}

void IndexTable::drop_oldest() {
  const HeaderField& oldest = ring_[oldest_];
  // The oldest surviving entry carries the smallest absolute id, which sits
  // at the front of both of its bucket queues.
  const std::uint64_t abs = insert_count_ - count_;
  if (auto it = by_name_.find(oldest.name); indexed_ && it != by_name_.end()) {
    NameBucket& bucket = it->second;
    if (!bucket.any.empty() && bucket.any.front() == abs) {
      bucket.any.pop_front();
    }
    if (auto vit = bucket.by_value.find(oldest.value);
        vit != bucket.by_value.end()) {
      if (!vit->second.empty() && vit->second.front() == abs) {
        vit->second.pop_front();
      }
      if (vit->second.empty()) bucket.by_value.erase(vit);
    }
    if (bucket.any.empty()) by_name_.erase(it);
  }
  size_octets_ -= oldest.hpack_size();
  oldest_ = (oldest_ + 1) & (ring_.size() - 1);
  --count_;
  ++eviction_count_;
}

void IndexTable::index_insert(const HeaderField& field,
                              std::uint64_t abs) const {
  NameBucket& bucket = by_name_[field.name];
  bucket.any.push_back(abs);
  bucket.by_value[field.value].push_back(abs);
}

void IndexTable::build_index() const {
  // Oldest first so every bucket queue comes out ascending. Decoder-side
  // tables never call find(), so they never reach this and insert/evict
  // stay as cheap as the unindexed original.
  for (std::size_t i = count_; i-- > 0;) {
    index_insert(entry(i), insert_count_ - 1 - i);
  }
  indexed_ = true;
}

MatchResult IndexTable::find(const HeaderField& field) const {
  const StaticIndex& st = static_index();
  std::uint32_t name_index = 0;

  if (auto it = st.by_name.find(field.name); it != st.by_name.end()) {
    if (auto vit = it->second.by_value.find(field.value);
        vit != it->second.by_value.end()) {
      return {.index = vit->second, .value_matched = true};
    }
    name_index = it->second.name_index;
  }
  if (!indexed_) {
    if (count_ <= kIndexThreshold) {
      // Short-lived tables (one fresh connection's worth of inserts) never
      // amortize index upkeep; a linear scan of a handful of entries beats
      // paying allocations on every insert.
      for (std::uint32_t i = 0; i < count_; ++i) {
        const HeaderField& e = entry(i);
        if (e.name != field.name) continue;
        if (e.value == field.value) {
          return {.index = kStaticTableSize + 1 + i, .value_matched = true};
        }
        if (name_index == 0) name_index = kStaticTableSize + 1 + i;
      }
      return {.index = name_index, .value_matched = false};
    }
    build_index();
  }
  if (auto it = by_name_.find(field.name); it != by_name_.end()) {
    const NameBucket& bucket = it->second;
    if (auto vit = bucket.by_value.find(field.value);
        vit != bucket.by_value.end()) {
      // back() = largest absolute id = most recent = lowest dynamic index.
      return {.index = index_of_abs(vit->second.back()), .value_matched = true};
    }
    if (name_index == 0) {
      name_index = index_of_abs(bucket.any.back());
    }
  }
  return {.index = name_index, .value_matched = false};
}

}  // namespace h2r::hpack
