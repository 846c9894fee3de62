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

namespace {

/// Makes @p dst equal to @p src touching only what differs: extra keys
/// are erased, missing ones inserted, and equal entries keep their node
/// and storage.
template <typename Map>
void assign_keeping(Map& dst, const Map& src) {
  auto d = dst.begin();
  for (const auto& [key, value] : src) {
    while (d != dst.end() && d->first < key) d = dst.erase(d);
    if (d != dst.end() && d->first == key) {
      if (!(d->second == value)) d->second = value;
      ++d;
    } else {
      dst.emplace_hint(d, key, value);
    }
  }
  dst.erase(d, dst.end());
}

}  // namespace

Site& Site::assign_content(const Site& shape) {
  assign_keeping(resources_, shape.resources_);
  assign_keeping(push_lists_, shape.push_lists_);
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

constexpr std::size_t kPeriod = 256;
constexpr std::size_t kTileRun = 16 * kPeriod;

/// One seed's body pattern from absolute offset 0: a period of lead-in,
/// so a copy can start at any offset % 256, then a 4 KiB run.
struct PatternTile {
  std::uint64_t seed = 0;
  bool filled = false;
  std::array<std::uint8_t, kPeriod + kTileRun> octets{};
};

/// Synthesizes the pattern (h >> (i % 8)) + i * 131, truncated to an
/// octet, for absolute indices i in [0, kPeriod + kTileRun). The i % 8
/// lane cycle and the +131 accumulator mod 256 make the sequence periodic
/// every lcm(8, 256/gcd(131·8, 256)) = 256 octets, so one period is built
/// eight octets at a time and replicated with doubling copies.
void fill_tile(PatternTile& tile, std::uint64_t h) {
  // Octet k of the first eight: (h >> k) + k * 131. Each later group of
  // eight adds 8 * 131 = 24 (mod 256) to every octet: a carry-free
  // per-octet add on the word.
  std::uint64_t word = 0;
  for (unsigned k = 0; k < 8; ++k) {
    const std::uint64_t octet =
        static_cast<std::uint8_t>(static_cast<std::uint8_t>(h >> k) + 131u * k);
    word |= octet << (8 * (std::endian::native == std::endian::little
                               ? k
                               : 7 - k));
  }
  constexpr std::uint64_t kStep = 0x1818181818181818ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::uint8_t* const out = tile.octets.data();
  for (std::size_t j = 0; j < kPeriod; j += 8) {
    std::memcpy(out + j, &word, sizeof word);
    word = ((word & ~kHigh) + (kStep & ~kHigh)) ^ ((word ^ kStep) & kHigh);
  }
  for (std::size_t filled = kPeriod; filled < tile.octets.size();) {
    const std::size_t k = std::min(filled, tile.octets.size() - filled);
    std::memcpy(out + filled, out, k);
    filled += k;
  }
  tile.seed = h;
  tile.filled = true;
}

/// The calling thread's tile for seed @p h, from a small direct-mapped
/// cache: every site serves the same few paths, so DATA frames copy from
/// a warm tile instead of re-synthesizing the pattern.
const PatternTile& pattern_tile(std::uint64_t h) {
  thread_local std::array<PatternTile, kBodyTileSlots> cache;
  PatternTile& tile = cache[body_tile_slot(h)];
  if (!tile.filled || tile.seed != h) fill_tile(tile, h);
  return tile;
}

/// Appends the body pattern octets for absolute byte indices
/// [offset, offset+n), copied from the seed's tile in runs of at most
/// 4 KiB. Every run is a whole number of periods, so each one starts at
/// the same tile octet, offset % 256. Appending (instead of growing the
/// buffer and overwriting it) spares the output buffer a zero-fill of
/// every payload octet.
void append_body_pattern(std::uint64_t h, std::size_t offset, std::size_t n,
                         ByteWriter& out) {
  const std::span<const std::uint8_t> run(
      pattern_tile(h).octets.data() + offset % kPeriod, kTileRun);
  out.reserve(n);
  for (std::size_t left = n; left > 0;) {
    const std::size_t k = std::min(left, kTileRun);
    out.write_bytes(run.first(k));
    left -= k;
  }
}

}  // namespace

std::uint64_t body_seed(const Resource& resource) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : resource.path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

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
