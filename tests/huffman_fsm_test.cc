// Differential tests for the Huffman FSM decoder: on every input — valid
// encodings, random garbage, and hand-built adversarial paddings — the
// byte-at-a-time FSM must agree with the retained bit-walk reference
// decoder on both the decoded value and the exact error message, whether
// it decodes into a fresh string (huffman_decode) or into a reused one
// (huffman_decode_into). The probes key error categories off those
// messages, so "agree" means string-equal, not merely both-failed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hpack/huffman.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace h2r::hpack {
namespace {

/// Asserts FSM and reference agree exactly on @p data, through both FSM
/// entry points. huffman_decode_into writes into one string reused across
/// every input of the test, so it starts out holding the previous input's
/// output (or a long filler), never an empty string.
void expect_agreement(const Bytes& data) {
  static std::string reused(256, 'x');
  const auto fsm = huffman_decode(data);
  const Status into = huffman_decode_into(data, reused);
  const auto ref = huffman_decode_reference(data);
  ASSERT_EQ(fsm.ok(), ref.ok()) << "input: " << to_hex(data);
  ASSERT_EQ(into.ok(), ref.ok()) << "input: " << to_hex(data);
  if (fsm.ok()) {
    EXPECT_EQ(fsm.value(), ref.value()) << "input: " << to_hex(data);
    EXPECT_EQ(reused, ref.value()) << "input: " << to_hex(data);
  } else {
    EXPECT_EQ(fsm.status().message(), ref.status().message())
        << "input: " << to_hex(data);
    EXPECT_EQ(into.code(), ref.status().code()) << "input: " << to_hex(data);
    EXPECT_EQ(into.message(), ref.status().message())
        << "input: " << to_hex(data);
    reused.assign(256, 'x');  // a failed decode leaves a partial prefix
  }
}

Bytes encode(const std::string& s) {
  ByteWriter out;
  huffman_encode(out, s);
  return out.take();
}

TEST(HuffmanFsm, DecodesEveryRoundTrippedSingleOctet) {
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    const Bytes wire = encode(s);
    const auto decoded = huffman_decode(wire);
    ASSERT_TRUE(decoded.ok()) << c;
    EXPECT_EQ(decoded.value(), s) << c;
    expect_agreement(wire);
  }
}

TEST(HuffmanFsm, AgreesOnRandomStrings) {
  Rng rng(20170605);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.next_below(64);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(256)));
    }
    const Bytes wire = encode(s);
    const auto decoded = huffman_decode(wire);
    ASSERT_TRUE(decoded.ok()) << to_hex(wire);
    EXPECT_EQ(decoded.value(), s);
    expect_agreement(wire);
  }
}

TEST(HuffmanFsm, AgreesOnRandomRawBytes) {
  // Mostly invalid streams: wrong padding, truncated codes, EOS prefixes.
  // The FSM must reproduce the reference's verdict byte-for-byte.
  Rng rng(41);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::size_t len = rng.next_below(24);
    Bytes data;
    data.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    expect_agreement(data);
  }
}

TEST(HuffmanFsm, AgreesOnAllOnesTails) {
  // Valid encodings with 0..4 extra 0xff octets appended: the first extra
  // octet pushes the pending EOS prefix past 7 bits, later ones walk into
  // the EOS leaf itself.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    const std::size_t len = rng.next_below(16);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(256)));
    }
    Bytes wire = encode(s);
    for (int extra = 0; extra < 4; ++extra) {
      wire.push_back(0xff);
      expect_agreement(wire);
    }
  }
}

TEST(HuffmanFsm, RejectsEosPrefixPaddingLongerThanSevenBits) {
  // 16 one-bits: a strict EOS prefix, but twice the §5.2 limit.
  const Bytes data = {0xff, 0xff};
  const auto decoded = huffman_decode(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "Huffman: padding longer than 7 bits");
  expect_agreement(data);
}

TEST(HuffmanFsm, RejectsEosDecodedInBody) {
  // 32 one-bits: the EOS code (30 ones) completes inside the stream.
  const Bytes data = {0xff, 0xff, 0xff, 0xff};
  const auto decoded = huffman_decode(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "Huffman: EOS decoded in body");
  expect_agreement(data);
}

TEST(HuffmanFsm, RejectsNonOnesPadding) {
  // 'a' = 00011 (5 bits) followed by 000: padding must be EOS bits (ones).
  const Bytes data = {0x18};
  const auto decoded = huffman_decode(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "Huffman: padding is not an EOS prefix");
  expect_agreement(data);
}

TEST(HuffmanFsm, RejectsTruncatedSymbol) {
  // '\x01' has a 26-bit code; its first octet alone leaves a 8-bit pending
  // path, which can never be valid padding.
  const Bytes full = encode(std::string(1, '\x01'));
  ASSERT_GT(full.size(), 1u);
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const Bytes truncated(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(huffman_decode(truncated).ok()) << cut;
    expect_agreement(truncated);
  }
}

TEST(HuffmanFsm, EmptyInputDecodesToEmptyString) {
  const Bytes data;
  const auto decoded = huffman_decode(data);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
  expect_agreement(data);
}

}  // namespace
}  // namespace h2r::hpack
