#include "trace/recorder.h"

#include <cassert>
#include <cstring>

namespace h2r::trace {
namespace {

using h2::FrameType;

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ------------------------------------------------------------- binary dump
//
// Layout (all integers little-endian):
//   "H2WT"            4-byte magic
//   u32  version      = 1
//   u64  record_count
//   u64  first_seq    seq of the first record (== drops for a ring)
//   u64  drops        records evicted by the bounded ring
//   u32  string_count interned note table (entry 0 is always "")
//   string_count x { u32 len, len bytes }
//   record_count x 32-byte WireRecord:
//     u64 time_bits, u32 stream_id, u32 wire_length, u32 detail_a,
//     u32 detail_b, u32 note_ref, u8 dir, u8 kind, u8 frame_type, u8 flags

constexpr char kMagic[4] = {'H', '2', 'W', 'T'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Bounds-checked little-endian reader over the dump.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool u32(std::uint32_t& v) {
    if (bytes_.size() - pos_ < 4) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes_.data() + pos_);
    v = static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }
  bool u8(std::uint8_t& v) {
    if (bytes_.size() == pos_) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool bytes(std::size_t n, std::string_view& out) {
    if (bytes_.size() - pos_ < n) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

// ------------------------------------------------------------- StringTable

std::uint32_t StringTable::intern(std::string_view s) {
  if (s.empty()) return 0;
  const std::uint64_t hash = fnv1a64(s);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i] != 0) {
    const std::uint32_t ref = slots_[i] - 1;
    if (hashes_[ref] == hash && strings_[ref] == s) return ref;
    i = (i + 1) & mask;
  }
  // New entry. Entries beyond live_ are retired strings kept for their
  // buffers (see clear()): assign() into one reuses its capacity, so a
  // recorder cycling through per-site vocabularies stops allocating once
  // its note buffers have warmed up.
  const auto ref = static_cast<std::uint32_t>(live_);
  if (live_ < strings_.size()) {
    strings_[live_].assign(s.data(), s.size());
    hashes_[live_] = hash;
  } else {
    strings_.emplace_back(s);
    hashes_.push_back(hash);
  }
  ++live_;
  slots_[i] = ref + 1;
  if (live_ * 4 >= slots_.size() * 3) rehash(slots_.size() * 2);
  return ref;
}

void StringTable::clear() {
  // Keep the string buffers: drop the table down to just ref 0 ("") but
  // leave retired entries in place for intern() to overwrite.
  if (strings_.empty()) {
    strings_.emplace_back();
    hashes_.push_back(0);
  }
  live_ = 1;
  slots_.assign(slots_.empty() ? 16 : slots_.size(), 0);
}

void StringTable::rehash(std::size_t buckets) {
  slots_.assign(buckets, 0);
  const std::size_t mask = buckets - 1;
  for (std::uint32_t ref = 1; ref < live_; ++ref) {
    std::size_t i = static_cast<std::size_t>(hashes_[ref]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = ref + 1;
  }
}

// ------------------------------------------------------------ record_frame

void Recorder::record_frame(Direction dir, const h2::Frame& frame,
                            std::size_t wire_length) {
  EventArgs args;
  args.dir = dir;
  args.kind = EventKind::kFrame;
  args.stream_id = frame.stream_id;
  args.flags = frame.flags;
  args.wire_length = static_cast<std::uint32_t>(wire_length);

  const FrameType type = frame.type();
  args.frame_type = frame.is<h2::UnknownPayload>()
                        ? frame.as<h2::UnknownPayload>().type
                        : static_cast<std::uint8_t>(type);
  switch (type) {
    case FrameType::kData:
      args.detail_a =
          static_cast<std::uint32_t>(frame.as<h2::DataPayload>().data.size());
      break;
    case FrameType::kHeaders: {
      const auto& p = frame.as<h2::HeadersPayload>();
      if (p.priority) {
        args.detail_a = p.priority->dependency;
        args.detail_b = kPriorityPresentBit | p.priority->weight_field |
                        (p.priority->exclusive ? kExclusiveBit : 0);
      }
      break;
    }
    case FrameType::kPriority: {
      const auto& info = frame.as<h2::PriorityPayload>().info;
      args.detail_a = info.dependency;
      args.detail_b = info.weight_field | (info.exclusive ? kExclusiveBit : 0);
      break;
    }
    case FrameType::kRstStream: {
      const auto code = frame.as<h2::RstStreamPayload>().error;
      args.detail_a = static_cast<std::uint32_t>(code);
      args.note = h2::to_string(code);
      break;
    }
    case FrameType::kSettings:
      args.detail_a = static_cast<std::uint32_t>(
          frame.as<h2::SettingsPayload>().entries.size());
      break;
    case FrameType::kPushPromise:
      args.detail_a = frame.as<h2::PushPromisePayload>().promised_stream_id;
      break;
    case FrameType::kGoaway: {
      const auto& p = frame.as<h2::GoawayPayload>();
      args.detail_a = static_cast<std::uint32_t>(p.error);
      args.detail_b = p.last_stream_id;
      if (p.debug_data.empty()) {
        args.note = h2::to_string(p.error);
      } else {
        note_scratch_.assign(h2::to_string(p.error));
        note_scratch_ += ':';
        note_scratch_.append(p.debug_data.begin(), p.debug_data.end());
        args.note = note_scratch_;
      }
      break;
    }
    case FrameType::kWindowUpdate:
      args.detail_a = frame.as<h2::WindowUpdatePayload>().increment;
      break;
    default:
      if (frame.is<h2::UnknownPayload>()) {
        args.detail_a = frame.as<h2::UnknownPayload>().type;
      }
      break;
  }
  record(args);
}

void Recorder::record_frame(Direction dir, const h2::FrameView& view,
                            std::size_t wire_length) {
  EventArgs args;
  args.dir = dir;
  args.kind = EventKind::kFrame;
  args.stream_id = view.stream_id;
  args.flags = view.flags;
  args.wire_length = static_cast<std::uint32_t>(wire_length);
  args.frame_type = view.raw_type;

  switch (view.type()) {
    case FrameType::kData:
      args.detail_a = static_cast<std::uint32_t>(view.body.size());
      break;
    case FrameType::kHeaders:
      if (view.priority) {
        args.detail_a = view.priority->dependency;
        args.detail_b = kPriorityPresentBit | view.priority->weight_field |
                        (view.priority->exclusive ? kExclusiveBit : 0);
      }
      break;
    case FrameType::kPriority:
      if (view.priority) {
        args.detail_a = view.priority->dependency;
        args.detail_b = view.priority->weight_field |
                        (view.priority->exclusive ? kExclusiveBit : 0);
      }
      break;
    case FrameType::kRstStream:
      args.detail_a = static_cast<std::uint32_t>(view.error);
      args.note = h2::to_string(view.error);
      break;
    case FrameType::kSettings:
      args.detail_a = static_cast<std::uint32_t>(view.settings_entry_count());
      break;
    case FrameType::kPushPromise:
      args.detail_a = view.promised_stream_id;
      break;
    case FrameType::kGoaway:
      args.detail_a = static_cast<std::uint32_t>(view.error);
      args.detail_b = view.last_stream_id;
      if (view.body.empty()) {
        args.note = h2::to_string(view.error);
      } else {
        note_scratch_.assign(h2::to_string(view.error));
        note_scratch_ += ':';
        note_scratch_.append(view.body.begin(), view.body.end());
        args.note = note_scratch_;
      }
      break;
    case FrameType::kWindowUpdate:
      args.detail_a = view.increment;
      break;
    default:
      if (!view.known_type()) args.detail_a = view.raw_type;
      break;
  }
  record(args);
}

// ------------------------------------------------------------ RingRecorder

std::vector<TraceEvent> RingRecorder::decode() const {
  std::vector<TraceEvent> out(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    decode_record(first_seq() + i, at(i), note_at(i), out[i]);
  }
  return out;
}

void RingRecorder::append_tape(const RingRecorder& tape) {
  assert(tape.drops() == 0 ||
         (capacity_ != 0 && tape.size() >= capacity_));
  for (std::uint32_t ref = 1; ref < tape.notes_.size(); ++ref) {
    (void)notes_.intern(tape.notes_.at(ref));
  }
  if (tape.drops() != 0) {
    // The evicted records, then the tape's retained ones (a full ring's
    // worth), would have pushed out everything retained here.
    dropped_ += records_.size() + tape.drops();
    records_.clear();
    head_ = 0;
    skip_sequence(tape.drops());
  }
  tape.replay_into(*this);
}

void RingRecorder::serialize(std::string& out) const {
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u64(out, records_.size());
  put_u64(out, first_seq());
  put_u64(out, dropped_);
  put_u32(out, static_cast<std::uint32_t>(notes_.size()));
  for (std::uint32_t ref = 0; ref < notes_.size(); ++ref) {
    const std::string_view s = notes_.at(ref);
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const WireRecord& rec = records_[index(i)];
    put_u64(out, rec.time_bits);
    put_u32(out, rec.stream_id);
    put_u32(out, rec.wire_length);
    put_u32(out, rec.detail_a);
    put_u32(out, rec.detail_b);
    put_u32(out, rec.note_ref);
    out.push_back(static_cast<char>(rec.dir));
    out.push_back(static_cast<char>(rec.kind));
    out.push_back(static_cast<char>(rec.frame_type));
    out.push_back(static_cast<char>(rec.flags));
  }
}

bool parse_trace_bin(std::string_view bytes, RingRecorder& out,
                     std::string& error) {
  out.clear();
  out.capacity_ = 0;
  const auto fail = [&](const char* why) {
    error = why;
    out.clear();
    return false;
  };
  ByteReader in(bytes);
  std::string_view magic;
  if (!in.bytes(sizeof kMagic, magic) ||
      std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0) {
    return fail("not an H2WT binary trace (bad magic)");
  }
  std::uint32_t version = 0;
  if (!in.u32(version) || version != kVersion) {
    return fail("unsupported H2WT trace version");
  }
  std::uint64_t record_count = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t drops = 0;
  std::uint32_t string_count = 0;
  if (!in.u64(record_count) || !in.u64(first_seq) || !in.u64(drops) ||
      !in.u32(string_count) || string_count == 0) {
    return fail("truncated H2WT trace header");
  }
  // A ring's oldest retained record is numbered by its eviction count.
  if (first_seq != drops) return fail("corrupt H2WT header (first_seq)");
  for (std::uint32_t i = 0; i < string_count; ++i) {
    std::uint32_t len = 0;
    std::string_view s;
    if (!in.u32(len) || !in.bytes(len, s)) {
      return fail("truncated H2WT note table");
    }
    if (i == 0) {
      if (!s.empty()) return fail("H2WT note table entry 0 must be empty");
      continue;
    }
    // serialize() writes an interned table: every entry is new, so
    // interning in order hands each string its dumped ref.
    if (out.notes_.intern(s) != i) {
      return fail("corrupt H2WT note table (repeated string)");
    }
  }
  if (record_count > in.remaining() / sizeof(WireRecord)) {
    return fail("truncated H2WT record block");
  }
  out.records_.reserve(record_count);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    WireRecord rec;
    if (!in.u64(rec.time_bits) || !in.u32(rec.stream_id) ||
        !in.u32(rec.wire_length) || !in.u32(rec.detail_a) ||
        !in.u32(rec.detail_b) || !in.u32(rec.note_ref) || !in.u8(rec.dir) ||
        !in.u8(rec.kind) || !in.u8(rec.frame_type) || !in.u8(rec.flags)) {
      return fail("truncated H2WT record block");
    }
    if (rec.dir > 1 ||
        rec.kind > static_cast<std::uint8_t>(EventKind::kMitigation) ||
        rec.note_ref >= string_count) {
      return fail("corrupt H2WT record");
    }
    out.records_.push_back(rec);
  }
  if (in.remaining() != 0) {
    return fail("trailing garbage after H2WT records");
  }
  out.dropped_ = drops;
  out.skip_sequence(drops + record_count);
  return true;
}

}  // namespace h2r::trace
