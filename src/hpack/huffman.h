// HPACK Huffman string coding (RFC 7541 §5.2 + Appendix B).
//
// Encoding walks the canonical code table. Decoding runs a precomputed
// byte-at-a-time FSM: each state is an interior node of the code trie (the
// bit path pending since the last symbol boundary) and each transition
// consumes a whole input octet, emitting the 0-2 symbols it completes.
// The transition table is generated once at static init from the same
// canonical table; a reference bit-walk trie decoder is retained as the
// differential-test oracle. Per §5.2, unconsumed trailing bits must form a
// strict prefix of the EOS code (i.e. up to 7 one-bits); anything else — an
// actually-decoded EOS, >7 padding bits, or zero bits in the padding — is a
// compression error, and the probes rely on that strictness.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace h2r::hpack {

/// Exact octet count @p s occupies after Huffman coding (no encode needed).
std::size_t huffman_encoded_size(std::string_view s) noexcept;

/// Appends the Huffman coding of @p s to @p out.
void huffman_encode(ByteWriter& out, std::string_view s);

/// Decodes @p data fully via the byte-at-a-time FSM. Fails on EOS in the
/// body, invalid padding, or truncated codes.
Result<std::string> huffman_decode(std::span<const std::uint8_t> data);

/// huffman_decode() into @p out, replacing its contents and keeping its
/// capacity. On failure @p out holds the symbols decoded before the error.
Status huffman_decode_into(std::span<const std::uint8_t> data,
                           std::string& out);

/// The original bit-at-a-time trie decoder, kept as the test oracle for the
/// FSM: both must agree (value and error message) on every input.
Result<std::string> huffman_decode_reference(
    std::span<const std::uint8_t> data);

}  // namespace h2r::hpack
