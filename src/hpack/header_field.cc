#include "hpack/header_field.h"

namespace h2r::hpack {

std::size_t header_list_size(const HeaderList& headers) noexcept {
  std::size_t total = 0;
  for (const auto& h : headers) total += h.hpack_size();
  return total;
}

std::string_view find_header(const HeaderList& headers, std::string_view name) {
  for (const auto& h : headers) {
    if (h.name == name) return h.value;
  }
  return {};
}

void assign_fields(
    HeaderList& list,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields) {
  list.resize(fields.size());
  auto it = list.begin();
  for (const auto& [name, value] : fields) {
    it->name.assign(name);
    it->value.assign(value);
    it->never_indexed = false;
    ++it;
  }
}

}  // namespace h2r::hpack
