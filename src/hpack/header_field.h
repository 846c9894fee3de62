// A single HTTP header field as HPACK sees it: a (name, value) pair plus the
// never-indexed sensitivity bit (RFC 7541 §7.1.3).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace h2r::hpack {

struct HeaderField {
  std::string name;   ///< lowercase by HTTP/2 convention (§8.1.2 of RFC 7540)
  std::string value;
  bool never_indexed = false;  ///< request "literal never indexed" on the wire

  HeaderField() = default;
  HeaderField(std::string_view n, std::string_view v, bool never = false)
      : name(n), value(v), never_indexed(never) {}

  /// RFC 7541 §4.1 size: name + value + 32 octets of bookkeeping overhead.
  [[nodiscard]] std::size_t hpack_size() const noexcept {
    return name.size() + value.size() + 32;
  }

  friend bool operator==(const HeaderField& a, const HeaderField& b) noexcept {
    return a.name == b.name && a.value == b.value;
  }
};

using HeaderList = std::vector<HeaderField>;

/// Sum of §4.1 sizes — the quantity SETTINGS_MAX_HEADER_LIST_SIZE bounds.
std::size_t header_list_size(const HeaderList& headers) noexcept;

/// Looks up the first field with @p name; empty view when absent.
std::string_view find_header(const HeaderList& headers, std::string_view name);

/// Overwrites @p list with @p fields (never_indexed off), assigning into the
/// existing entries' strings so a reused list allocates nothing once warm.
void assign_fields(
    HeaderList& list,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields);

}  // namespace h2r::hpack
