// Site/content-model tests plus cross-cutting invariants (Huffman table
// integrity, settings last-wins) that don't fit the per-module suites.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "h2/settings.h"
#include "hpack/huffman_table.h"
#include "server/site.h"

namespace h2r {
namespace {

using server::Resource;
using server::Site;

TEST(Site, FindReturnsRegisteredResources) {
  Site site("x.test");
  site.add_resource({.path = "/a", .size = 10, .content_type = "text/plain"});
  ASSERT_NE(site.find("/a"), nullptr);
  EXPECT_EQ(site.find("/a")->size, 10u);
  EXPECT_EQ(site.find("/missing"), nullptr);
}

TEST(Site, PushListOnlyForConfiguredTrigger) {
  Site site("x.test");
  site.set_push_list("/", {"/a", "/b"});
  ASSERT_NE(site.push_list("/"), nullptr);
  EXPECT_EQ(site.push_list("/")->size(), 2u);
  EXPECT_EQ(site.push_list("/other"), nullptr);
}

TEST(Site, StandardTestbedHasProbeEssentials) {
  const Site site = Site::standard_testbed_site();
  ASSERT_NE(site.find("/"), nullptr);
  ASSERT_NE(site.find("/small"), nullptr);
  // Multiplexing needs several objects spanning many DATA frames.
  for (int i = 0; i < 4; ++i) {
    const auto* large = site.find("/large/" + std::to_string(i));
    ASSERT_NE(large, nullptr);
    EXPECT_GT(large->size, 4u * 16'384u);
  }
  // Algorithm 1 needs a >65,535-octet drain object plus six more.
  for (int i = 0; i < 7; ++i) {
    const auto* obj = site.find("/object/" + std::to_string(i));
    ASSERT_NE(obj, nullptr);
    EXPECT_GT(obj->size, 65'535u);
  }
  ASSERT_NE(site.push_list("/"), nullptr);
}

TEST(ResourceBody, DeterministicAndDistinctPerPath) {
  const Resource a{.path = "/x", .size = 1000, .content_type = ""};
  const Resource b{.path = "/y", .size = 1000, .content_type = ""};
  EXPECT_EQ(resource_body(a, 0, 100), resource_body(a, 0, 100));
  EXPECT_NE(resource_body(a, 0, 100), resource_body(b, 0, 100));
}

TEST(ResourceBody, OffsetsComposeSeamlessly) {
  const Resource r{.path = "/x", .size = 256, .content_type = ""};
  const Bytes whole = resource_body(r, 0, 256);
  Bytes stitched = resource_body(r, 0, 100);
  const Bytes rest = resource_body(r, 100, 156);
  stitched.insert(stitched.end(), rest.begin(), rest.end());
  EXPECT_EQ(stitched, whole);
}

TEST(ResourceBody, ClampsAtResourceEnd) {
  const Resource r{.path = "/x", .size = 10, .content_type = ""};
  EXPECT_EQ(resource_body(r, 8, 100).size(), 2u);
  EXPECT_TRUE(resource_body(r, 10, 5).empty());
  EXPECT_TRUE(resource_body(r, 999, 5).empty());
}

// The body formula itself, independent of how the server produces it:
// octet i is (h >> (i % 8)) + i * 131 with h = FNV-1a(path).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

::testing::AssertionResult body_matches_formula(const Resource& r,
                                                std::size_t off,
                                                std::size_t len) {
  const std::uint64_t h = fnv1a(r.path);
  const Bytes got = resource_body(r, off, len);
  if (got.size() != len) {
    return ::testing::AssertionFailure()
           << r.path << " @" << off << "+" << len << ": " << got.size()
           << " octets";
  }
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t at = off + i;
    const auto want = static_cast<std::uint8_t>((h >> (at % 8)) + at * 131);
    if (got[i] != want) {
      return ::testing::AssertionFailure()
             << r.path << " octet " << at << ": " << int(got[i]) << " != "
             << int(want);
    }
  }
  return ::testing::AssertionSuccess();
}

Resource big(std::string path) {
  return {.path = std::move(path), .size = 1 << 20, .content_type = ""};
}

TEST(ResourceBody, IsTheFormulaAtEveryOffset) {
  const Resource r = big("/object/3");
  EXPECT_EQ(server::body_seed(r), fnv1a(r.path));
  // Every start phase, with lengths that stop short of, cross, and run
  // past the 256-octet period and the 4 KiB copy run.
  for (std::size_t off = 0; off <= 1024; ++off) {
    for (std::size_t len : {std::size_t{1}, std::size_t{255}, std::size_t{257},
                            std::size_t{4095}, std::size_t{4353}}) {
      ASSERT_TRUE(body_matches_formula(r, off, len));
    }
  }
  ASSERT_TRUE(body_matches_formula(r, 0, 16384));
  ASSERT_TRUE(body_matches_formula(r, 123'457, 16384 + 9));
}

// More paths than cache slots, read interleaved so every slot is evicted
// and refilled, including two paths that share a slot.
void check_interleaved_paths() {
  std::vector<Resource> rs;
  for (std::size_t i = 0; i < 2 * server::kBodyTileSlots + 3; ++i) {
    rs.push_back(big("/p/" + std::to_string(i)));
  }
  std::size_t partner = 1;
  while (server::body_tile_slot(server::body_seed(rs[partner])) !=
         server::body_tile_slot(server::body_seed(rs[0]))) {
    ++partner;
  }
  ASSERT_NE(server::body_seed(rs[partner]), server::body_seed(rs[0]));
  for (std::size_t round = 0; round < 6; ++round) {
    const std::size_t off = round * 5'003;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      ASSERT_TRUE(body_matches_formula(rs[i], off + i, 700 + 97 * i));
      // Ping-pong between the two paths of one slot.
      ASSERT_TRUE(body_matches_formula(rs[0], off, 300));
      ASSERT_TRUE(body_matches_formula(rs[partner], off + 1, 5000));
    }
  }
}

TEST(ResourceBody, IsTheFormulaAcrossMorePathsThanCacheSlots) {
  check_interleaved_paths();
}

TEST(ResourceBody, IsTheFormulaOnTwoThreadsAtOnce) {
  std::thread other(check_interleaved_paths);
  check_interleaved_paths();
  other.join();
}

TEST(HuffmanTable, IsAPrefixFreeCanonicalCode) {
  // Structural integrity of the embedded RFC 7541 Appendix B table:
  // 257 codes, lengths within [5, 30], all distinct, prefix-free.
  using hpack::detail::kHuffmanTable;
  ASSERT_EQ(kHuffmanTable.size(), 257u);
  std::set<std::pair<std::uint32_t, int>> seen;
  for (const auto& [bits, length] : kHuffmanTable) {
    EXPECT_GE(length, 5);
    EXPECT_LE(length, 30);
    EXPECT_LT(static_cast<std::uint64_t>(bits), 1ull << length);
    EXPECT_TRUE(seen.emplace(bits, length).second) << "duplicate code";
  }
  // Prefix-freedom: no code is a prefix of a longer one.
  for (const auto& [b1, l1] : kHuffmanTable) {
    for (const auto& [b2, l2] : kHuffmanTable) {
      if (l1 >= l2 || (b1 == b2 && l1 == static_cast<int>(l2))) continue;
      EXPECT_NE(b2 >> (l2 - l1), b1)
          << "code " << b1 << "/" << int(l1) << " prefixes " << b2 << "/"
          << int(l2);
    }
  }
  // Kraft equality for a complete code: sum 2^-len == 1.
  long double kraft = 0;
  for (const auto& [bits, length] : kHuffmanTable) {
    kraft += std::pow(2.0L, -static_cast<long double>(length));
  }
  EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-12);
  // EOS is the all-ones 30-bit code (§5.2 padding depends on this).
  EXPECT_EQ(kHuffmanTable[256].bits, 0x3FFFFFFFu);
  EXPECT_EQ(kHuffmanTable[256].length, 30);
}

TEST(Settings, RepeatedApplyLastWins) {
  h2::SettingsMap s;
  ASSERT_TRUE(s.apply(0x3, 100).ok());
  ASSERT_TRUE(s.apply(0x3, 7).ok());
  EXPECT_EQ(s.max_concurrent_streams(), std::optional<std::uint32_t>(7));
}

}  // namespace
}  // namespace h2r
