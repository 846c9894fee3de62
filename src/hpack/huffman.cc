#include "hpack/huffman.h"

#include <array>
#include <memory>
#include <vector>

#include "hpack/huffman_table.h"

namespace h2r::hpack {
namespace {

using detail::kHuffmanTable;

/// Flat binary trie over the canonical codes. Node 0 is the root; children
/// index into the same vector; `symbol >= 0` marks a leaf.
struct DecodeTrie {
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t symbol = -1;
  };
  std::vector<Node> nodes;

  DecodeTrie() {
    nodes.emplace_back();
    for (std::size_t sym = 0; sym < kHuffmanTable.size(); ++sym) {
      const auto [bits, length] = kHuffmanTable[sym];
      std::int32_t cur = 0;
      for (int b = length - 1; b >= 0; --b) {
        const int bit = static_cast<int>((bits >> b) & 1u);
        if (nodes[static_cast<std::size_t>(cur)].child[bit] < 0) {
          nodes[static_cast<std::size_t>(cur)].child[bit] =
              static_cast<std::int32_t>(nodes.size());
          nodes.emplace_back();
        }
        cur = nodes[static_cast<std::size_t>(cur)].child[bit];
      }
      nodes[static_cast<std::size_t>(cur)].symbol = static_cast<std::int32_t>(sym);
    }
  }
};

const DecodeTrie& trie() {
  static const DecodeTrie t;
  return t;
}

constexpr std::int32_t kEosSymbol = 256;

// ------------------------------------------------------------------- FSM
//
// States are the trie's interior nodes (root = state 0). A transition
// consumes one octet: it encodes the next state, up to two completed
// symbols (codes are >= 5 bits, so 7 pending + 8 new bits complete at most
// two), and a failure flag for paths that decode EOS or leave the code
// space. End-of-input validity depends only on the final state: its bit
// path *is* the pending padding, so depth and all-ones-ness decide between
// accept, ">7 bits" and "not an EOS prefix" — exactly the reference
// decoder's checks.

enum : std::uint8_t {
  kFailEos = 1,      ///< byte path walks through the EOS leaf
  kFailInvalid = 2,  ///< byte path leaves the code space (unreachable for
                     ///< the complete RFC 7541 code; kept for exactness)
};

struct Fsm {
  struct Transition {
    std::uint8_t next = 0;   ///< state after the octet
    std::uint8_t flags = 0;  ///< kFailEos / kFailInvalid, 0 = ok
    std::uint8_t nsym = 0;   ///< symbols completed within the octet
    std::uint8_t sym[2] = {0, 0};
  };
  struct State {
    std::uint8_t depth = 0;  ///< pending bits since last symbol boundary
    bool all_ones = true;    ///< pending bits are an EOS prefix
  };

  std::vector<Transition> table;  ///< state * 256 + octet
  std::vector<State> states;

  Fsm() {
    const DecodeTrie& t = trie();
    // Compact ids for interior nodes; the root keeps id 0.
    std::vector<std::int32_t> state_of(t.nodes.size(), -1);
    std::vector<std::int32_t> node_of;
    std::vector<State> info_of_node(t.nodes.size());
    for (std::size_t n = 0; n < t.nodes.size(); ++n) {
      if (t.nodes[n].symbol < 0) {
        state_of[n] = static_cast<std::int32_t>(node_of.size());
        node_of.push_back(static_cast<std::int32_t>(n));
      }
    }
    // Depth / all-ones per node, walkable in index order because parents
    // are always created before their children in DecodeTrie.
    for (std::size_t n = 0; n < t.nodes.size(); ++n) {
      for (int bit = 0; bit < 2; ++bit) {
        const std::int32_t c = t.nodes[n].child[bit];
        if (c < 0) continue;
        info_of_node[static_cast<std::size_t>(c)].depth =
            static_cast<std::uint8_t>(info_of_node[n].depth + 1);
        info_of_node[static_cast<std::size_t>(c)].all_ones =
            info_of_node[n].all_ones && bit == 1;
      }
    }

    states.resize(node_of.size());
    for (std::size_t s = 0; s < node_of.size(); ++s) {
      states[s] = info_of_node[static_cast<std::size_t>(node_of[s])];
    }

    table.resize(node_of.size() * 256);
    for (std::size_t s = 0; s < node_of.size(); ++s) {
      for (unsigned octet = 0; octet < 256; ++octet) {
        Transition& e = table[s * 256 + octet];
        std::int32_t cur = node_of[s];
        for (int b = 7; b >= 0 && e.flags == 0; --b) {
          const int bit = static_cast<int>((octet >> b) & 1u);
          cur = t.nodes[static_cast<std::size_t>(cur)].child[bit];
          if (cur < 0) {
            e.flags = kFailInvalid;
            break;
          }
          const std::int32_t sym = t.nodes[static_cast<std::size_t>(cur)].symbol;
          if (sym >= 0) {
            if (sym == kEosSymbol) {
              e.flags = kFailEos;
              break;
            }
            e.sym[e.nsym++] = static_cast<std::uint8_t>(sym);
            cur = 0;
          }
        }
        if (e.flags == 0) {
          e.next = static_cast<std::uint8_t>(state_of[static_cast<std::size_t>(cur)]);
        }
      }
    }
  }
};

const Fsm& fsm() {
  static const Fsm f;
  return f;
}

}  // namespace

std::size_t huffman_encoded_size(std::string_view s) noexcept {
  std::uint64_t bits = 0;
  for (unsigned char c : s) bits += kHuffmanTable[c].length;
  return static_cast<std::size_t>((bits + 7) / 8);
}

void huffman_encode(ByteWriter& out, std::string_view s) {
  std::uint64_t acc = 0;  // bit accumulator, most-significant side first
  int acc_bits = 0;
  for (unsigned char c : s) {
    const auto [code, length] = kHuffmanTable[c];
    acc = (acc << length) | code;
    acc_bits += length;
    while (acc_bits >= 8) {
      acc_bits -= 8;
      out.write_u8(static_cast<std::uint8_t>(acc >> acc_bits));
    }
  }
  if (acc_bits > 0) {
    // Pad with the most-significant bits of EOS (all ones).
    const int pad = 8 - acc_bits;
    acc = (acc << pad) | ((1u << pad) - 1u);
    out.write_u8(static_cast<std::uint8_t>(acc));
  }
}

Result<std::string> huffman_decode(std::span<const std::uint8_t> data) {
  std::string out;
  H2R_RETURN_IF_ERROR(huffman_decode_into(data, out));
  return out;
}

Status huffman_decode_into(std::span<const std::uint8_t> data,
                           std::string& out) {
  const Fsm& f = fsm();
  const Fsm::Transition* table = f.table.data();
  out.clear();
  // Shortest codes are 5 bits: 8/5 output octets per input octet, tops.
  out.reserve(data.size() * 8 / 5 + 1);
  std::uint32_t state = 0;
  for (std::uint8_t octet : data) {
    const Fsm::Transition& e = table[state * 256u + octet];
    if (e.flags != 0) {
      return e.flags == kFailEos
                 ? CompressionFailureError("Huffman: EOS decoded in body")
                 : CompressionFailureError("Huffman: invalid code path");
    }
    if (e.nsym != 0) {
      out.push_back(static_cast<char>(e.sym[0]));
      if (e.nsym == 2) out.push_back(static_cast<char>(e.sym[1]));
    }
    state = e.next;
  }
  const Fsm::State& st = f.states[state];
  if (st.depth > 7) {
    return CompressionFailureError("Huffman: padding longer than 7 bits");
  }
  if (st.depth > 0 && !st.all_ones) {
    return CompressionFailureError("Huffman: padding is not an EOS prefix");
  }
  return OkStatus();
}

Result<std::string> huffman_decode_reference(
    std::span<const std::uint8_t> data) {
  const auto& t = trie();
  std::string out;
  out.reserve(data.size() * 2);
  std::int32_t cur = 0;
  int bits_in_flight = 0;    // bits consumed since last emitted symbol
  bool all_ones = true;      // whether those bits are all ones (EOS prefix)
  for (std::uint8_t octet : data) {
    for (int b = 7; b >= 0; --b) {
      const int bit = (octet >> b) & 1;
      cur = t.nodes[static_cast<std::size_t>(cur)].child[bit];
      if (cur < 0) {
        return CompressionFailureError("Huffman: invalid code path");
      }
      ++bits_in_flight;
      all_ones = all_ones && bit == 1;
      const std::int32_t sym = t.nodes[static_cast<std::size_t>(cur)].symbol;
      if (sym >= 0) {
        if (sym == kEosSymbol) {
          return CompressionFailureError("Huffman: EOS decoded in body");
        }
        out.push_back(static_cast<char>(sym));
        cur = 0;
        bits_in_flight = 0;
        all_ones = true;
      }
    }
  }
  if (bits_in_flight > 7) {
    return CompressionFailureError("Huffman: padding longer than 7 bits");
  }
  if (bits_in_flight > 0 && !all_ones) {
    return CompressionFailureError("Huffman: padding is not an EOS prefix");
  }
  return out;
}

}  // namespace h2r::hpack
