// Static web-site content model served by the engine.
//
// Bodies are procedurally generated from (path, offset), so a Site carries
// only metadata no matter how large its objects are — the testbed needs
// multi-megabyte files for the multiplexing probe (§III-A1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpack/header_field.h"
#include "util/bytes.h"

namespace h2r::server {

struct Resource {
  std::string path;
  std::size_t size = 0;
  std::string content_type = "text/html";

  friend bool operator==(const Resource&, const Resource&) = default;
};

class Site {
 public:
  Site() = default;
  explicit Site(std::string host) : host_(std::move(host)) {}

  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  Site& set_host(std::string_view host) {
    host_.assign(host);
    return *this;
  }

  /// Takes @p shape's resources and push lists, keeping this site's own
  /// (storage and all) when they are already equal — how one Site object
  /// is rewritten for host after host serving the same content.
  Site& assign_content(const Site& shape);

  Site& add_resource(Resource r);

  /// Paths the server pushes when @p trigger_path is requested.
  Site& set_push_list(std::string trigger_path, std::vector<std::string> paths);

  /// Extra headers attached to every response (e.g. a stable cookie).
  Site& add_response_header(std::string name, std::string value);
  /// Drops every extra header (the list keeps its storage).
  Site& clear_response_headers() {
    extra_headers_.clear();
    return *this;
  }

  /// When set, every response carries a *fresh* set-cookie value — the
  /// behaviour that makes the paper drop sites with compression ratio > 1
  /// from the Figure 4/5 data (§V-G).
  Site& set_cookie_churn(bool on) {
    cookie_churn_ = on;
    return *this;
  }
  [[nodiscard]] bool cookie_churn() const noexcept { return cookie_churn_; }

  [[nodiscard]] const Resource* find(std::string_view path) const;
  [[nodiscard]] const std::vector<std::string>* push_list(
      std::string_view trigger_path) const;
  [[nodiscard]] const hpack::HeaderList& extra_headers() const noexcept {
    return extra_headers_;
  }
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return resources_.size();
  }

  /// The testbed site used for Table III probing: a front page, a large
  /// object per multiplexing stream, and a small object for window tests.
  static Site standard_testbed_site(std::string host = "testbed.local");

 private:
  std::string host_;
  // std::less<> so lookups by string_view need no temporary std::string.
  std::map<std::string, Resource, std::less<>> resources_;
  std::map<std::string, std::vector<std::string>, std::less<>> push_lists_;
  hpack::HeaderList extra_headers_;
  bool cookie_churn_ = false;
};

/// Deterministic body bytes for @p resource at [offset, offset+len): octet
/// i of the body is (h >> (i % 8)) + i * 131, truncated to an octet, with
/// h = body_seed(resource). Stable across reads and threads.
Bytes resource_body(const Resource& resource, std::size_t offset,
                    std::size_t len);

/// Same pattern, copied directly into @p out — the engine's DATA
/// emission path appends body octets after the frame header it already
/// wrote, with no intermediate buffer.
void resource_body_into(ByteWriter& out, const Resource& resource,
                        std::size_t offset, std::size_t len);

/// FNV-1a (64-bit) over the resource's path: the body pattern's seed.
[[nodiscard]] std::uint64_t body_seed(const Resource& resource);

/// resource_body_into() copies from a per-thread, direct-mapped cache of
/// pattern tiles, one tile per slot; a seed lives in this slot.
inline constexpr std::size_t kBodyTileSlots = 16;
[[nodiscard]] constexpr std::size_t body_tile_slot(std::uint64_t seed) noexcept {
  return static_cast<std::size_t>(seed % kBodyTileSlots);
}

}  // namespace h2r::server
