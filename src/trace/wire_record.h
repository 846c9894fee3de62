// The H2Wiretap's on-the-wire representation: one fixed-width 32-byte POD
// per trace event.
//
// This is what the hot path writes (RingRecorder appends one WireRecord per
// record() — no strings, no vectors, no heap) and what every consumer
// reads: the metrics fold, the violation annotator and the sequence
// detector walk the records themselves, and only the JSONL exporter
// expands them, one reused row at a time, back into TraceEvents. Two
// fields of the TraceEvent shape live outside the record: `seq` is
// implicit (a ring's records are contiguous, so seq = first_seq + index)
// and `note` is interned into the owning recorder's string table
// (`note_ref`; 0 names the empty string). `tags` are not stored at all:
// the annotator derives them from the records and the exporter attaches
// them to each row as it writes it.
//
// The virtual-clock timestamp is stored as the raw bit pattern of the
// `double` (time_bits), so a decode round-trips to the exact value the
// clock read — the JSONL exporter's `%.3f` output is byte-stable, not
// merely close.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "trace/event.h"

namespace h2r::trace {

/// One binary trace record. 32 bytes, trivially copyable, stable layout
/// (serialized field-by-field little-endian by RingRecorder::serialize).
struct WireRecord {
  std::uint64_t time_bits = 0;    ///< std::bit_cast of TraceEvent::time_ms
  std::uint32_t stream_id = 0;
  std::uint32_t wire_length = 0;
  std::uint32_t detail_a = 0;
  std::uint32_t detail_b = 0;
  std::uint32_t note_ref = 0;     ///< string-table index; 0 = empty note
  std::uint8_t dir = 0;           ///< Direction
  std::uint8_t kind = 0;          ///< EventKind
  std::uint8_t frame_type = 0;
  std::uint8_t flags = 0;
};
static_assert(sizeof(WireRecord) == 32, "WireRecord must stay 32 bytes");
static_assert(std::is_trivially_copyable_v<WireRecord>);

/// The arguments a call site hands to Recorder::record(): the TraceEvent
/// fields minus everything the recorder stamps (seq, time) or the annotator
/// owns (tags). `note` is a view — borrowed for the duration of the call,
/// interned or copied by the sink if it retains events.
struct EventArgs {
  Direction dir = Direction::kClientToServer;
  EventKind kind = EventKind::kFrame;
  std::uint32_t stream_id = 0;
  std::uint8_t frame_type = 0;
  std::uint8_t flags = 0;
  std::uint32_t wire_length = 0;
  std::uint32_t detail_a = 0;
  std::uint32_t detail_b = 0;
  std::string_view note{};
};

// Field accessors: the violation annotator, the metrics fold and the
// sequence detector read records through these.
[[nodiscard]] inline EventKind kind_of(const WireRecord& r) noexcept {
  return static_cast<EventKind>(r.kind);
}
[[nodiscard]] inline Direction dir_of(const WireRecord& r) noexcept {
  return static_cast<Direction>(r.dir);
}
[[nodiscard]] inline std::uint8_t type_of(const WireRecord& r) noexcept {
  return r.frame_type;
}
[[nodiscard]] inline std::uint8_t flags_of(const WireRecord& r) noexcept {
  return r.flags;
}
[[nodiscard]] inline std::uint32_t stream_of(const WireRecord& r) noexcept {
  return r.stream_id;
}
[[nodiscard]] inline std::uint32_t len_of(const WireRecord& r) noexcept {
  return r.wire_length;
}
[[nodiscard]] inline std::uint32_t a_of(const WireRecord& r) noexcept {
  return r.detail_a;
}
[[nodiscard]] inline std::uint32_t b_of(const WireRecord& r) noexcept {
  return r.detail_b;
}

/// Expands (seq, record, note) into @p out in place, reusing out's note
/// capacity — the annotated JSONL export decodes every record into one
/// reused row. `tags` is cleared, never populated: tags are the
/// annotator's to attach.
inline void decode_record(std::uint64_t seq, const WireRecord& rec,
                          std::string_view note, TraceEvent& out) {
  out.seq = seq;
  out.time_ms = std::bit_cast<double>(rec.time_bits);
  out.dir = static_cast<Direction>(rec.dir);
  out.kind = static_cast<EventKind>(rec.kind);
  out.stream_id = rec.stream_id;
  out.frame_type = rec.frame_type;
  out.flags = rec.flags;
  out.wire_length = rec.wire_length;
  out.detail_a = rec.detail_a;
  out.detail_b = rec.detail_b;
  if (note.empty()) {
    out.note.clear();  // empty views may carry a null data()
  } else {
    out.note.assign(note.data(), note.size());
  }
  out.tags.clear();
}

}  // namespace h2r::trace
