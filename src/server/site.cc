#include "server/site.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>

namespace h2r::server {

Site& Site::add_resource(Resource r) {
  resources_[r.path] = std::move(r);
  return *this;
}

Site& Site::set_push_list(std::string trigger_path,
                          std::vector<std::string> paths) {
  push_lists_[std::move(trigger_path)] = std::move(paths);
  return *this;
}

Site& Site::add_response_header(std::string name, std::string value) {
  extra_headers_.emplace_back(std::move(name), std::move(value));
  return *this;
}

const Resource* Site::find(std::string_view path) const {
  auto it = resources_.find(path);
  return it == resources_.end() ? nullptr : &it->second;
}

const std::vector<std::string>* Site::push_list(
    std::string_view trigger_path) const {
  auto it = push_lists_.find(trigger_path);
  return it == push_lists_.end() ? nullptr : &it->second;
}

Site Site::standard_testbed_site(std::string host) {
  Site site(std::move(host));
  site.add_resource({.path = "/", .size = 2'048, .content_type = "text/html"});
  // Large objects so concurrent responses span many DATA frames (§III-A1:
  // small objects finish too fast to observe interleaving).
  for (int i = 0; i < 8; ++i) {
    site.add_resource({.path = "/large/" + std::to_string(i),
                       .size = 512 * 1024,
                       .content_type = "application/octet-stream"});
  }
  // Medium objects for the priority probe (Algorithm 1 serves several
  // streams whose completion order must be distinguishable).
  for (int i = 0; i < 8; ++i) {
    site.add_resource({.path = "/object/" + std::to_string(i),
                       .size = 64 * 1024,
                       .content_type = "application/octet-stream"});
  }
  site.add_resource(
      {.path = "/small", .size = 256, .content_type = "text/plain"});
  site.add_resource(
      {.path = "/style.css", .size = 4'096, .content_type = "text/css"});
  site.add_resource(
      {.path = "/app.js", .size = 8'192, .content_type = "application/javascript"});
  site.add_resource(
      {.path = "/logo.png", .size = 16'384, .content_type = "image/png"});
  site.set_push_list("/", {"/style.css", "/app.js", "/logo.png"});
  return site;
}

namespace {

/// Appends the body pattern octets for absolute byte indices
/// [offset, offset+n): (h >> (i % 8)) + i * 131, truncated to an octet.
/// The i % 8 lane cycle and the +131 accumulator mod 256 make the sequence
/// periodic every lcm(8, 256/gcd(131·8, 256)) = 256 octets, so one period
/// is synthesized into a stack tile eight octets at a time, replicated
/// with doubling copies, and the tile appended in chunks at memcpy speed —
/// the scan delivers hundreds of kilobytes of procedural DATA per site.
/// Appending (instead of growing the buffer and overwriting it) spares the
/// output buffer a zero-fill of every payload octet.
void append_body_pattern(std::uint64_t h, std::size_t offset, std::size_t n,
                         ByteWriter& out) {
  constexpr std::size_t kPeriod = 256;
  constexpr std::size_t kTile = 16 * kPeriod;
  std::array<std::uint8_t, kTile> tile;
  const std::size_t tile_len = std::min(n, kTile);
  const std::size_t head = std::min(tile_len, kPeriod);
  // Octet k of the first eight: h >> ((offset + k) % 8), plus
  // (offset + k) * 131. Each later group of eight adds 8 * 131 = 24
  // (mod 256) to every octet: a carry-free per-octet add on the word.
  const std::size_t lane = offset % 8;
  const auto mul = static_cast<std::uint8_t>(offset * 131u);
  std::uint64_t word = 0;
  for (unsigned k = 0; k < 8; ++k) {
    const std::uint64_t octet = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(h >> ((lane + k) % 8)) + mul + 131u * k);
    word |= octet << (8 * (std::endian::native == std::endian::little
                               ? k
                               : 7 - k));
  }
  constexpr std::uint64_t kStep = 0x1818181818181818ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  for (std::size_t j = 0; j < head; j += 8) {
    std::memcpy(tile.data() + j, &word, sizeof word);
    word = ((word & ~kHigh) + (kStep & ~kHigh)) ^ ((word ^ kStep) & kHigh);
  }
  for (std::size_t filled = head; filled < tile_len;) {
    const std::size_t k = std::min(filled, tile_len - filled);
    std::copy_n(tile.data(), k, tile.data() + filled);
    filled += k;
  }
  out.reserve(n);
  for (std::size_t left = n; left > 0;) {
    const std::size_t k = std::min(left, tile_len);
    out.write_bytes(std::span<const std::uint8_t>(tile.data(), k));
    left -= k;
  }
}

/// FNV-1a over the path seeds the pattern.
std::uint64_t body_seed(const Resource& resource) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : resource.path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void resource_body_into(ByteWriter& out, const Resource& resource,
                        std::size_t offset, std::size_t len) {
  const std::size_t end = std::min(offset + len, resource.size);
  if (end <= offset) return;
  append_body_pattern(body_seed(resource), offset, end - offset, out);
}

Bytes resource_body(const Resource& resource, std::size_t offset,
                    std::size_t len) {
  ByteWriter w;
  resource_body_into(w, resource, offset, len);
  return w.take();
}

}  // namespace h2r::server
