// H2Wiretap event model: one record per observable wire or protocol event.
//
// The trace layer sits *under* the probe stack: ClientConnection and
// Http2Server report every frame they put on the wire (each endpoint records
// its own sends, so one shared Recorder sees the full duplex conversation in
// order, without double counting) plus the protocol-level events the paper's
// analysis cares about — SETTINGS taking effect, flow-control stalls, HPACK
// dynamic-table churn, parse errors. Events carry a logical timestamp from
// net::VirtualClock when one is attached; with no clock, `seq` alone orders
// the trace (everything here is single-connection deterministic anyway).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "h2/constants.h"

namespace h2r::trace {

/// Who put the bytes on the wire.
enum class Direction : std::uint8_t {
  kClientToServer = 0,
  kServerToClient = 1,
};

enum class EventKind : std::uint8_t {
  kConnectionStart,  ///< a new connection began; `note` labels it
  kRoundMark,        ///< one lockstep exchange round completed (detail_a = #)
  kFrame,            ///< a frame hit the wire (frame_type/flags/wire_length)
  kParseError,       ///< inbound bytes poisoned the parser; `note` = reason,
                     ///< a = offending frame's stream offset, b = 1 when
                     ///< frame_type names the offending frame

  kSettingsApplied,  ///< receiver applied one SETTINGS entry (a = id, b = value)
  kWindowStall,      ///< a response stream became flow-control blocked
  kWindowResume,     ///< a previously stalled stream can progress again
  kHpackInsert,      ///< dynamic-table insertions while coding a block (a = n)
  kHpackEvict,       ///< dynamic-table evictions while coding a block (a = n)
  kFault,            ///< transport injected a delivery fault (`note` = kind,
                     ///< a = octet offset, b = per-kind detail)
  kMitigation,       ///< server mitigation escalation step (a = level,
                     ///< b = suspected attack class, `note` = class name)
};

std::string_view to_string(Direction d) noexcept;
std::string_view to_string(EventKind k) noexcept;

/// One trace record, decoded from a ring's WireRecord for export.
/// `detail_a`/`detail_b` are per-kind scalars (documented at
/// Recorder::record_frame() for frames and at EventKind above for protocol
/// events); `note` carries free text (GOAWAY cause, parse-error message,
/// connection label) and `tags` holds the violation annotator's tags for
/// this record (append_annotated_jsonl in annotate.h).
struct TraceEvent {
  std::uint64_t seq = 0;     ///< stamped by the Recorder, 0-based
  double time_ms = 0.0;      ///< virtual clock, 0 when no clock is attached
  Direction dir = Direction::kClientToServer;
  EventKind kind = EventKind::kFrame;
  std::uint32_t stream_id = 0;
  std::uint8_t frame_type = 0;  ///< raw type octet; meaningful for kFrame only
  std::uint8_t flags = 0;
  std::uint32_t wire_length = 0;  ///< octets on the wire incl. 9-octet header
  std::uint32_t detail_a = 0;
  std::uint32_t detail_b = 0;
  std::string note;
  std::vector<std::string> tags;
};

/// Bit set in detail_b of HEADERS/PRIORITY frame events when the priority
/// triple had the exclusive flag; kPriorityPresentBit marks HEADERS that
/// carried a priority block at all.
inline constexpr std::uint32_t kExclusiveBit = 0x100;
inline constexpr std::uint32_t kPriorityPresentBit = 0x200;

/// JSONL exporters: one event per line, fixed key order
/// (site?, seq, t, dir, kind, stream, type, flags, len, a, b, note, tags) —
/// byte-identical output for identical event sequences. @p site, when
/// non-empty, is prepended to every line so multi-site dumps stay queryable.
void append_jsonl(std::string& out, const TraceEvent& event,
                  std::string_view site = {});
[[nodiscard]] std::string to_jsonl(const std::vector<TraceEvent>& events,
                                   std::string_view site = {});

}  // namespace h2r::trace
