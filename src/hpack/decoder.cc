#include "hpack/decoder.h"

#include "hpack/huffman.h"
#include "hpack/integer.h"

namespace h2r::hpack {

Decoder::Decoder(DecoderOptions options)
    : options_(options), table_(options.max_table_capacity) {}

void Decoder::reset(DecoderOptions options) {
  options_ = options;
  table_.reset(options.max_table_capacity);
}

void Decoder::set_max_table_capacity(std::uint32_t capacity) {
  options_.max_table_capacity = capacity;
  if (table_.capacity() > capacity) table_.set_capacity(capacity);
}

Result<HeaderList> Decoder::decode(std::span<const std::uint8_t> block) {
  HeaderList out;
  out.reserve(8);  // typical request/response blocks; avoids growth churn
  H2R_RETURN_IF_ERROR(decode_into(block, out));
  return out;
}

Status Decoder::decode_into(std::span<const std::uint8_t> block,
                            HeaderList& out) {
  ByteReader in(block);
  std::size_t count = 0;  // fields decoded; out[count..] is spare storage
  std::size_t list_size = 0;

  // The next output slot: a spare entry of @p out when there is one.
  auto next_field = [&]() -> HeaderField& {
    if (count == out.size()) out.emplace_back();
    return out[count++];
  };
  auto account = [&](const HeaderField& f) -> Status {
    list_size += f.hpack_size();
    if (options_.max_header_list_size && list_size > *options_.max_header_list_size) {
      return RefusedError("header list exceeds SETTINGS_MAX_HEADER_LIST_SIZE");
    }
    return OkStatus();
  };

  while (!in.empty()) {
    H2R_ASSIGN_OR_RETURN(std::uint8_t first, in.read_u8());

    if (first & 0x80) {  // §6.1 indexed header field
      H2R_ASSIGN_OR_RETURN(std::uint32_t index, decode_integer(in, first, 7));
      H2R_ASSIGN_OR_RETURN(const HeaderField* entry, table_.at(index));
      HeaderField& field = next_field();
      field.name.assign(entry->name);
      field.value.assign(entry->value);
      field.never_indexed = entry->never_indexed;
      H2R_RETURN_IF_ERROR(account(field));
      continue;
    }

    if ((first & 0xE0) == 0x20) {  // §6.3 dynamic table size update
      if (count != 0) {
        return CompressionFailureError(
            "table size update after header fields in block");
      }
      H2R_ASSIGN_OR_RETURN(std::uint32_t capacity, decode_integer(in, first, 5));
      if (capacity > options_.max_table_capacity) {
        return CompressionFailureError(
            "table size update exceeds advertised SETTINGS_HEADER_TABLE_SIZE");
      }
      table_.set_capacity(capacity);
      continue;
    }

    // Remaining three forms are literals differing in indexing behaviour.
    int prefix;
    bool add_to_table = false;
    bool never_indexed = false;
    if ((first & 0xC0) == 0x40) {  // §6.2.1 incremental indexing
      prefix = 6;
      add_to_table = true;
    } else if ((first & 0xF0) == 0x00) {  // §6.2.2 without indexing
      prefix = 4;
    } else {  // (first & 0xF0) == 0x10, §6.2.3 never indexed
      prefix = 4;
      never_indexed = true;
    }

    H2R_ASSIGN_OR_RETURN(std::uint32_t name_index,
                         decode_integer(in, first, prefix));
    HeaderField& field = next_field();
    field.never_indexed = never_indexed;
    if (name_index > 0) {
      H2R_ASSIGN_OR_RETURN(const HeaderField* referenced,
                           table_.at(name_index));
      field.name.assign(referenced->name);
    } else {
      H2R_RETURN_IF_ERROR(decode_string(in, field.name));
    }
    H2R_RETURN_IF_ERROR(decode_string(in, field.value));

    if (add_to_table) table_.insert(field);
    H2R_RETURN_IF_ERROR(account(field));
  }
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(count), out.end());
  return OkStatus();
}

Status Decoder::decode_string(ByteReader& in, std::string& out) const {
  H2R_ASSIGN_OR_RETURN(std::uint8_t first, in.read_u8());
  const bool huffman = (first & 0x80) != 0;
  H2R_ASSIGN_OR_RETURN(std::uint32_t length, decode_integer(in, first, 7));
  H2R_ASSIGN_OR_RETURN(auto raw, in.read_bytes(length));
  if (huffman) return huffman_decode_into(raw, out);
  out.assign(raw.begin(), raw.end());
  return OkStatus();
}

}  // namespace h2r::hpack
