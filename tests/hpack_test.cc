// HPACK conformance tests, anchored on the RFC 7541 Appendix C vectors
// (validated externally against an independent implementation), plus unit
// coverage for the integer/Huffman primitives and table mechanics.
#include <gtest/gtest.h>

#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "hpack/huffman.h"
#include "hpack/integer.h"
#include "hpack/table.h"
#include "util/bytes.h"

namespace h2r::hpack {
namespace {

Bytes hex(std::string_view s) {
  auto r = from_hex(s);
  EXPECT_TRUE(r.ok()) << s;
  return r.value_or(Bytes{});
}

// ---------------------------------------------------------------- integers

TEST(HpackInteger, AppendixC1_SmallValueFitsPrefix) {
  ByteWriter w;
  encode_integer(w, 10, 5, 0);
  EXPECT_EQ(to_hex(w.bytes()), "0a");
}

TEST(HpackInteger, AppendixC1_1337With5BitPrefix) {
  ByteWriter w;
  encode_integer(w, 1337, 5, 0);
  EXPECT_EQ(to_hex(w.bytes()), "1f9a0a");
}

TEST(HpackInteger, AppendixC1_42With8BitPrefix) {
  ByteWriter w;
  encode_integer(w, 42, 8, 0);
  EXPECT_EQ(to_hex(w.bytes()), "2a");
}

TEST(HpackInteger, RoundTripsBoundaryValues) {
  for (int prefix = 1; prefix <= 8; ++prefix) {
    for (std::uint32_t v :
         {0u, 1u, 30u, 31u, 32u, 127u, 128u, 16383u, 0xFFFFFFFFu}) {
      ByteWriter w;
      encode_integer(w, v, prefix, 0);
      const Bytes buf = w.take();
      ByteReader r({buf.data(), buf.size()});
      const std::uint8_t first = r.read_u8().value();
      auto decoded = decode_integer(r, first, prefix);
      ASSERT_TRUE(decoded.ok()) << "prefix=" << prefix << " v=" << v;
      EXPECT_EQ(*decoded, v);
      EXPECT_TRUE(r.empty());
    }
  }
}

TEST(HpackInteger, DecodeRejectsOverflow) {
  // Prefix-full first octet followed by continuations pushing past 2^32-1.
  const Bytes buf = {0x80, 0x80, 0x80, 0x80, 0x10};  // ~2^32+
  ByteReader r({buf.data(), buf.size()});
  auto v = decode_integer(r, 0xFF, 8);
  EXPECT_EQ(v.status().code(), StatusCode::kCompressionError);
}

TEST(HpackInteger, DecodeRejectsTruncation) {
  const Bytes buf = {0x80};  // continuation bit set, no next octet
  ByteReader r({buf.data(), buf.size()});
  auto v = decode_integer(r, 0x1F, 5);
  EXPECT_FALSE(v.ok());
}

TEST(HpackInteger, EncodeRejectsBadPrefix) {
  ByteWriter w;
  EXPECT_THROW(encode_integer(w, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW(encode_integer(w, 1, 9, 0), std::invalid_argument);
  EXPECT_THROW(encode_integer(w, 1, 5, 0x1F), std::invalid_argument);
}

// ----------------------------------------------------------------- huffman

TEST(Huffman, EncodesKnownVectors) {
  // From RFC 7541 C.4.1 / C.4.2: the Huffman codings of well-known strings.
  ByteWriter w1;
  huffman_encode(w1, "www.example.com");
  EXPECT_EQ(to_hex(w1.bytes()), "f1e3c2e5f23a6ba0ab90f4ff");

  ByteWriter w2;
  huffman_encode(w2, "no-cache");
  EXPECT_EQ(to_hex(w2.bytes()), "a8eb10649cbf");

  ByteWriter w3;
  huffman_encode(w3, "custom-key");
  EXPECT_EQ(to_hex(w3.bytes()), "25a849e95ba97d7f");
}

TEST(Huffman, DecodesKnownVectors) {
  auto d = huffman_decode(hex("f1e3c2e5f23a6ba0ab90f4ff"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, "www.example.com");
}

TEST(Huffman, RoundTripsAllOctets) {
  std::string all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
  ByteWriter w;
  huffman_encode(w, all);
  auto back = huffman_decode(w.bytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, all);
}

TEST(Huffman, EncodedSizePredictionMatches) {
  for (std::string_view s :
       {"", "a", "www.example.com", "Mon, 21 Oct 2013 20:13:21 GMT",
        "\x01\x02\xFE\xFF"}) {
    ByteWriter w;
    huffman_encode(w, s);
    EXPECT_EQ(w.size(), huffman_encoded_size(s)) << s;
  }
}

TEST(Huffman, RejectsEosInBody) {
  // 30 one-bits = the EOS code followed by valid padding.
  const Bytes buf = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(huffman_decode(buf).status().code(), StatusCode::kCompressionError);
}

TEST(Huffman, RejectsNonEosPadding) {
  // '0' encodes as 00000 (5 bits); remaining 3 bits zero = invalid padding.
  const Bytes buf = {0x00};
  EXPECT_EQ(huffman_decode(buf).status().code(), StatusCode::kCompressionError);
}

TEST(Huffman, AcceptsEosPrefixPadding) {
  // 'a' = 00011 (5 bits) + 111 padding = 0x1F.
  auto d = huffman_decode(hex("1f"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, "a");
}

TEST(Huffman, EmptyInputDecodesToEmpty) {
  auto d = huffman_decode({});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
}

// ------------------------------------------------------------------ tables

TEST(StaticTable, KnownAnchors) {
  EXPECT_EQ(static_table_entry(1).name, ":authority");
  EXPECT_EQ(static_table_entry(2).name, ":method");
  EXPECT_EQ(static_table_entry(2).value, "GET");
  EXPECT_EQ(static_table_entry(8).value, "200");
  EXPECT_EQ(static_table_entry(38).name, "host");
  EXPECT_EQ(static_table_entry(54).name, "server");
  EXPECT_EQ(static_table_entry(61).name, "www-authenticate");
  EXPECT_THROW(static_table_entry(0), std::out_of_range);
  EXPECT_THROW(static_table_entry(62), std::out_of_range);
}

TEST(IndexTable, InsertionOrderAndAddressing) {
  IndexTable t;
  t.insert({"x-a", "1"});
  t.insert({"x-b", "2"});
  // Most recent insertion occupies index 62.
  EXPECT_EQ(t.at(62).value()->name, "x-b");
  EXPECT_EQ(t.at(63).value()->name, "x-a");
  EXPECT_EQ(t.at(64).status().code(), StatusCode::kCompressionError);
  EXPECT_EQ(t.at(0).status().code(), StatusCode::kCompressionError);
}

TEST(IndexTable, SizeAccountingUses32OctetOverhead) {
  IndexTable t;
  t.insert({"ab", "cd"});  // 2 + 2 + 32 = 36
  EXPECT_EQ(t.size_octets(), 36u);
}

TEST(IndexTable, EvictsFromTail) {
  IndexTable t(/*capacity=*/72);  // room for exactly two 36-octet entries
  t.insert({"x1", "v1"});
  t.insert({"x2", "v2"});
  t.insert({"x3", "v3"});
  EXPECT_EQ(t.dynamic_entry_count(), 2u);
  EXPECT_EQ(t.at(62).value()->name, "x3");
  EXPECT_EQ(t.at(63).value()->name, "x2");  // x1 evicted
}

TEST(IndexTable, OversizeEntryFlushesTable) {
  IndexTable t(/*capacity=*/40);
  t.insert({"ab", "cd"});
  t.insert({"this-name-is-way-too-long-to-fit", "and-so-is-this-value"});
  EXPECT_EQ(t.dynamic_entry_count(), 0u);
  EXPECT_EQ(t.size_octets(), 0u);
}

TEST(IndexTable, CapacityReductionEvicts) {
  IndexTable t;
  t.insert({"x1", "v1"});
  t.insert({"x2", "v2"});
  t.set_capacity(36);
  EXPECT_EQ(t.dynamic_entry_count(), 1u);
  EXPECT_EQ(t.at(62).value()->name, "x2");
}

TEST(IndexTable, FindPrefersFullMatch) {
  IndexTable t;
  // ":method GET" fully matches static index 2.
  auto m = t.find({":method", "GET"});
  EXPECT_EQ(m.index, 2u);
  EXPECT_TRUE(m.value_matched);
  // ":method DELETE" name-matches index 2 (first :method entry).
  m = t.find({":method", "DELETE"});
  EXPECT_EQ(m.index, 2u);
  EXPECT_FALSE(m.value_matched);
  // Unknown name: no match.
  m = t.find({"x-nope", "1"});
  EXPECT_EQ(m.index, 0u);
}

TEST(IndexTable, FindSeesDynamicEntries) {
  IndexTable t;
  t.insert({"x-custom", "abc"});
  auto m = t.find({"x-custom", "abc"});
  EXPECT_EQ(m.index, 62u);
  EXPECT_TRUE(m.value_matched);
}

// ------------------------------------------------------- decoder twins

/// Every observable of @p t: counts, occupancy and every addressable entry.
std::string table_state(const IndexTable& t) {
  std::string out = std::to_string(t.capacity()) + "/" +
                    std::to_string(t.size_octets()) + "/" +
                    std::to_string(t.dynamic_entry_count()) + "/" +
                    std::to_string(t.insert_count()) + "/" +
                    std::to_string(t.eviction_count());
  for (std::uint32_t i = kStaticTableSize + 1;; ++i) {
    const auto e = t.at(i);
    if (!e.ok()) break;
    out += "|" + e.value()->name + "=" + e.value()->value;
  }
  return out;
}

/// More and longer fields than any block in this file decodes to, all
/// never-indexed: what a reused list may hold when the next block arrives.
HeaderList long_list() {
  HeaderList list;
  for (int i = 0; i < 12; ++i) {
    list.emplace_back(std::string(80, 'n') + std::to_string(i),
                      std::string(300, 'v'), /*never=*/true);
  }
  return list;
}

/// A Decoder whose every decode() is checked against decode_into() on two
/// twin decoders: one decodes into a list reused across blocks, the other
/// into a list refilled with long_list() before each block. The twins must
/// match decode() exactly — fields and never-indexed bits on success, code
/// and message on failure — and leave the same table behind.
class CheckedDecoder {
 public:
  explicit CheckedDecoder(DecoderOptions options = {})
      : plain_(options), warm_(options), primed_(options) {}

  Result<HeaderList> decode(std::span<const std::uint8_t> block) {
    auto want = plain_.decode(block);
    expect_same(want, warm_.decode_into(block, warm_list_), warm_list_);
    primed_list_ = long_list();
    expect_same(want, primed_.decode_into(block, primed_list_), primed_list_);
    EXPECT_EQ(table_state(warm_.table()), table_state(plain_.table()));
    EXPECT_EQ(table_state(primed_.table()), table_state(plain_.table()));
    return want;
  }

  void reset(DecoderOptions options) {
    plain_.reset(options);
    warm_.reset(options);
    primed_.reset(options);
  }

  [[nodiscard]] const IndexTable& table() const { return plain_.table(); }

 private:
  static void expect_same(const Result<HeaderList>& want, const Status& got,
                          const HeaderList& list) {
    ASSERT_EQ(got.ok(), want.ok()) << got.to_string();
    if (!want.ok()) {
      EXPECT_EQ(got.code(), want.status().code());
      EXPECT_EQ(got.message(), want.status().message());
      return;
    }
    ASSERT_EQ(list.size(), want->size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(list[i].name, (*want)[i].name);
      EXPECT_EQ(list[i].value, (*want)[i].value);
      EXPECT_EQ(list[i].never_indexed, (*want)[i].never_indexed);
    }
  }

  Decoder plain_;
  Decoder warm_;
  Decoder primed_;
  HeaderList warm_list_;
  HeaderList primed_list_;
};

// --------------------------------------------- Appendix C: header blocks

const HeaderList kRequest1 = {{":method", "GET"},
                              {":scheme", "http"},
                              {":path", "/"},
                              {":authority", "www.example.com"}};
const HeaderList kRequest2 = {{":method", "GET"},
                              {":scheme", "http"},
                              {":path", "/"},
                              {":authority", "www.example.com"},
                              {"cache-control", "no-cache"}};
const HeaderList kRequest3 = {{":method", "GET"},
                              {":scheme", "https"},
                              {":path", "/index.html"},
                              {":authority", "www.example.com"},
                              {"custom-key", "custom-value"}};

TEST(HpackAppendixC, C3_RequestsWithoutHuffman_EncodeExactly) {
  Encoder enc({.policy = IndexingPolicy::kAggressive, .use_huffman = false});
  EXPECT_EQ(to_hex(enc.encode(kRequest1)),
            "828684410f7777772e6578616d706c652e636f6d");
  EXPECT_EQ(to_hex(enc.encode(kRequest2)), "828684be58086e6f2d6361636865");
  EXPECT_EQ(to_hex(enc.encode(kRequest3)),
            "828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565");
  EXPECT_EQ(enc.table().dynamic_entry_count(), 3u);
}

TEST(HpackAppendixC, C4_RequestsWithHuffman_EncodeExactly) {
  Encoder enc({.policy = IndexingPolicy::kAggressive, .use_huffman = true});
  EXPECT_EQ(to_hex(enc.encode(kRequest1)),
            "828684418cf1e3c2e5f23a6ba0ab90f4ff");
  EXPECT_EQ(to_hex(enc.encode(kRequest2)), "828684be5886a8eb10649cbf");
  EXPECT_EQ(to_hex(enc.encode(kRequest3)),
            "828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf");
}

TEST(HpackAppendixC, C3_RequestsDecodeExactly) {
  CheckedDecoder dec;
  auto h1 = dec.decode(hex("828684410f7777772e6578616d706c652e636f6d"));
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(*h1, kRequest1);
  auto h2 = dec.decode(hex("828684be58086e6f2d6361636865"));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h2, kRequest2);
  auto h3 =
      dec.decode(hex("828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565"));
  ASSERT_TRUE(h3.ok());
  EXPECT_EQ(*h3, kRequest3);
}

TEST(HpackAppendixC, C4_HuffmanRequestsDecodeExactly) {
  CheckedDecoder dec;
  auto h1 = dec.decode(hex("828684418cf1e3c2e5f23a6ba0ab90f4ff"));
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(*h1, kRequest1);
  auto h2 = dec.decode(hex("828684be5886a8eb10649cbf"));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h2, kRequest2);
  auto h3 = dec.decode(
      hex("828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf"));
  ASSERT_TRUE(h3.ok());
  EXPECT_EQ(*h3, kRequest3);
}

const HeaderList kResponse1 = {
    {":status", "302"},
    {"cache-control", "private"},
    {"date", "Mon, 21 Oct 2013 20:13:21 GMT"},
    {"location", "https://www.example.com"}};
const HeaderList kResponse2 = {
    {":status", "307"},
    {"cache-control", "private"},
    {"date", "Mon, 21 Oct 2013 20:13:21 GMT"},
    {"location", "https://www.example.com"}};
const HeaderList kResponse3 = {
    {":status", "200"},
    {"cache-control", "private"},
    {"date", "Mon, 21 Oct 2013 20:13:22 GMT"},
    {"location", "https://www.example.com"},
    {"content-encoding", "gzip"},
    {"set-cookie", "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1"}};

TEST(HpackAppendixC, C5_ResponsesWithEvictionDecodeExactly) {
  // Table capacity 256 forces evictions across the three blocks.
  CheckedDecoder dec({.max_table_capacity = 256, .max_header_list_size = {}});
  auto h1 = dec.decode(hex(
      "4803333032580770726976617465611d4d6f6e2c203231204f637420323031332032"
      "303a31333a323120474d546e1768747470733a2f2f7777772e6578616d706c652e63"
      "6f6d"));
  ASSERT_TRUE(h1.ok()) << h1.status().to_string();
  EXPECT_EQ(*h1, kResponse1);
  auto h2 = dec.decode(hex("4803333037c1c0bf"));
  ASSERT_TRUE(h2.ok()) << h2.status().to_string();
  EXPECT_EQ(*h2, kResponse2);
  auto h3 = dec.decode(hex(
      "88c1611d4d6f6e2c203231204f637420323031332032303a31333a323220474d54c0"
      "5a04677a69707738666f6f3d4153444a4b48514b425a584f5157454f504955415851"
      "57454f49553b206d61782d6167653d333630303b2076657273696f6e3d31"));
  ASSERT_TRUE(h3.ok()) << h3.status().to_string();
  EXPECT_EQ(*h3, kResponse3);
}

TEST(HpackAppendixC, C6_HuffmanResponsesDecodeExactly) {
  CheckedDecoder dec({.max_table_capacity = 256, .max_header_list_size = {}});
  auto h1 = dec.decode(hex(
      "488264025885aec3771a4b6196d07abe941054d444a8200595040b8166e082a62d1b"
      "ff6e919d29ad171863c78f0b97c8e9ae82ae43d3"));
  ASSERT_TRUE(h1.ok()) << h1.status().to_string();
  EXPECT_EQ(*h1, kResponse1);
  auto h2 = dec.decode(hex("4883640effc1c0bf"));
  ASSERT_TRUE(h2.ok()) << h2.status().to_string();
  EXPECT_EQ(*h2, kResponse2);
  auto h3 = dec.decode(hex(
      "88c16196d07abe941054d444a8200595040b8166e084a62d1bffc05a839bd9ab77ad"
      "94e7821dd7f2e6c7b335dfdfcd5b3960d5af27087f3672c1ab270fb5291f95873160"
      "65c003ed4ee5b1063d5007"));
  ASSERT_TRUE(h3.ok()) << h3.status().to_string();
  EXPECT_EQ(*h3, kResponse3);
  // After block 3 the table holds the three most recent entries only.
  EXPECT_EQ(dec.table().dynamic_entry_count(), 3u);
}

// ------------------------------------------------- encoder/decoder pairing

TEST(HpackPair, RoundTripUnderAllPolicies) {
  const HeaderList headers = {{":status", "200"},
                              {"server", "h2o/1.6.2"},
                              {"x-custom-header", "some opaque value"},
                              {"set-cookie", "a=b; Secure", /*never=*/true}};
  for (auto policy : {IndexingPolicy::kAggressive, IndexingPolicy::kStaticOnly,
                      IndexingPolicy::kNone}) {
    for (bool huffman : {false, true}) {
      Encoder enc({.policy = policy, .use_huffman = huffman});
      CheckedDecoder dec;
      for (int round = 0; round < 3; ++round) {
        auto got = dec.decode(enc.encode(headers));
        ASSERT_TRUE(got.ok()) << got.status().to_string();
        ASSERT_EQ(got->size(), headers.size());
        for (std::size_t i = 0; i < headers.size(); ++i) {
          EXPECT_EQ((*got)[i].name, headers[i].name);
          EXPECT_EQ((*got)[i].value, headers[i].value);
        }
      }
    }
  }
}

TEST(HpackPair, NeverIndexedSurvivesRoundTrip) {
  Encoder enc;
  CheckedDecoder dec;
  const HeaderList headers = {{"authorization", "Bearer token", true}};
  auto got = dec.decode(enc.encode(headers));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)[0].never_indexed);
}

TEST(HpackPair, AggressiveShrinksRepeatedBlocks) {
  Encoder enc({.policy = IndexingPolicy::kAggressive});
  const HeaderList headers = {{":status", "200"},
                              {"server", "nginx/1.9.15"},
                              {"etag", "\"abc123\""}};
  const std::size_t first = enc.encode(headers).size();
  const std::size_t second = enc.encode(headers).size();
  EXPECT_LT(second, first);
  EXPECT_EQ(second, headers.size());  // one indexed octet per field
}

TEST(HpackPair, StaticOnlyPolicyNeverShrinks) {
  Encoder enc({.policy = IndexingPolicy::kStaticOnly});
  const HeaderList headers = {{":status", "200"},
                              {"server", "nginx/1.9.15"},
                              {"etag", "\"abc123\""}};
  const std::size_t first = enc.encode(headers).size();
  const std::size_t second = enc.encode(headers).size();
  EXPECT_EQ(second, first);
  EXPECT_EQ(enc.table().dynamic_entry_count(), 0u);
}

TEST(HpackPair, TableCapacityUpdateInstructionFlows) {
  Encoder enc;
  CheckedDecoder dec;
  enc.set_table_capacity(128);
  auto got = dec.decode(enc.encode({{"x", "y"}}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(dec.table().capacity(), 128u);
}

TEST(HpackDecoder, RejectsTableUpdateBeyondAdvertised) {
  // Size update to 8192 when we advertised 4096: compression error.
  ByteWriter w;
  encode_integer(w, 8192, 5, 0x20);
  CheckedDecoder dec;
  EXPECT_EQ(dec.decode(w.bytes()).status().code(),
            StatusCode::kCompressionError);
}

TEST(HpackDecoder, RejectsTableUpdateAfterFields) {
  ByteWriter w;
  w.write_u8(0x82);                    // :method GET
  encode_integer(w, 0, 5, 0x20);       // size update — illegal here
  CheckedDecoder dec;
  EXPECT_EQ(dec.decode(w.bytes()).status().code(),
            StatusCode::kCompressionError);
}

TEST(HpackDecoder, RejectsInvalidIndex) {
  CheckedDecoder dec;
  const Bytes buf = {0xFF, 0x00};  // indexed field, index 127: empty dynamic
  EXPECT_EQ(dec.decode(buf).status().code(), StatusCode::kCompressionError);
}

TEST(HpackDecoder, EnforcesMaxHeaderListSize) {
  CheckedDecoder dec({.max_header_list_size = 50});
  Encoder enc;
  const HeaderList big = {{"x-large-header", std::string(100, 'v')}};
  EXPECT_EQ(dec.decode(enc.encode(big)).status().code(), StatusCode::kRefused);
}

TEST(HpackDecoder, TruncatedLiteralFails) {
  // Literal with incremental indexing announcing a 10-octet name, 2 given.
  const Bytes buf = {0x40, 0x0a, 'a', 'b'};
  CheckedDecoder dec;
  EXPECT_FALSE(dec.decode(buf).ok());
}

// ------------------------------------------------------------------- reset
// A rewound table, encoder or decoder must be indistinguishable from a new
// one, whatever state it was in: entries evicted, capacity resized, a size
// update pending, the lookup index built.

/// A workload that inserts past capacity (evictions), shrinks and regrows
/// the table, and looks entries up often enough to build the hash index.
void churn(IndexTable& t) {
  for (int i = 0; i < 40; ++i) {
    t.insert({"x-header-" + std::to_string(i % 7),
              "value-" + std::to_string(i) + std::string(i % 5 * 9, 'v')});
    (void)t.find({"x-header-3", "value-3"});
  }
  t.set_capacity(200);
  t.insert({"after-shrink", "v"});
  t.set_capacity(4096);
}

std::vector<std::string> finds(const IndexTable& t) {
  std::vector<std::string> out;
  for (int i = 0; i < 10; ++i) {
    const MatchResult m = t.find({"x-header-" + std::to_string(i % 7),
                                  "value-" + std::to_string(i)});
    out.push_back(std::to_string(m.index) + (m.value_matched ? "v" : "n"));
  }
  return out;
}

TEST(HpackReset, TableBehavesLikeNew) {
  IndexTable used(4096);
  churn(used);
  churn(used);
  ASSERT_GT(used.eviction_count(), 0u);
  used.reset(1024);
  IndexTable fresh(1024);
  EXPECT_EQ(table_state(used), table_state(fresh));
  churn(used);
  churn(fresh);
  EXPECT_EQ(table_state(used), table_state(fresh));
  EXPECT_EQ(finds(used), finds(fresh));
}

TEST(HpackReset, TableResetAfterOversizeFlush) {
  IndexTable used(64);
  used.insert({"a", "b"});
  used.insert({"much-too-long-name", std::string(100, 'x')});  // flushes
  used.reset(4096);
  IndexTable fresh(4096);
  churn(used);
  churn(fresh);
  EXPECT_EQ(table_state(used), table_state(fresh));
}

std::vector<HeaderList> blocks_to_encode() {
  std::vector<HeaderList> lists;
  for (int i = 0; i < 12; ++i) {
    lists.push_back({{":status", "200"},
                     {"server", "nginx"},
                     {"x-request", "r" + std::to_string(i % 4)},
                     {"set-cookie", std::string(60 + i * 17, 'c')},
                     {"authorization", "secret", /*never=*/true}});
  }
  return lists;
}

TEST(HpackReset, EncoderBehavesLikeNew) {
  for (const IndexingPolicy policy :
       {IndexingPolicy::kAggressive, IndexingPolicy::kStaticOnly,
        IndexingPolicy::kNone}) {
    const EncoderOptions opts{.policy = policy, .use_huffman = true};
    Encoder used({.policy = IndexingPolicy::kAggressive,
                  .use_huffman = false,
                  .table_capacity = 512});
    for (const auto& list : blocks_to_encode()) (void)used.encode(list);
    used.set_table_capacity(256);  // leaves a size update pending
    ASSERT_TRUE(used.has_pending_capacity_update());
    used.reset(opts);
    Encoder fresh(opts);
    EXPECT_EQ(used.capacity_epoch(), fresh.capacity_epoch());
    EXPECT_FALSE(used.has_pending_capacity_update());
    EXPECT_EQ(table_state(used.table()), table_state(fresh.table()));
    for (const auto& list : blocks_to_encode()) {
      EXPECT_EQ(used.encode(list), fresh.encode(list));
    }
    used.set_table_capacity(100);
    fresh.set_table_capacity(100);
    for (const auto& list : blocks_to_encode()) {
      EXPECT_EQ(used.encode(list), fresh.encode(list));
    }
    EXPECT_EQ(table_state(used.table()), table_state(fresh.table()));
  }
}

TEST(HpackReset, DecoderBehavesLikeNew) {
  // The blocks a resizing, aggressively indexing peer sends.
  Encoder peer({.policy = IndexingPolicy::kAggressive, .use_huffman = true});
  std::vector<Bytes> blocks;
  for (const auto& list : blocks_to_encode()) {
    blocks.push_back(peer.encode(list));
  }
  peer.set_table_capacity(300);
  for (const auto& list : blocks_to_encode()) {
    blocks.push_back(peer.encode(list));
  }

  CheckedDecoder used({.max_table_capacity = 8192});
  for (const Bytes& b : blocks) ASSERT_TRUE(used.decode(b).ok());
  ASSERT_GT(used.table().eviction_count(), 0u);
  used.reset({});
  CheckedDecoder fresh;
  EXPECT_EQ(table_state(used.table()), table_state(fresh.table()));
  for (const Bytes& b : blocks) {
    const auto a = used.decode(b);
    const auto f = fresh.decode(b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(a.value(), f.value());
  }
  EXPECT_EQ(table_state(used.table()), table_state(fresh.table()));
}

}  // namespace
}  // namespace h2r::hpack
