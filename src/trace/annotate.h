// H2Wiretap violation annotator.
//
// Post-processes a recorded ring and tags records where the server's
// observable behaviour deviates from RFC 7540 — exactly the quirk axes of
// the paper's Table III. The annotator reads only the ring's WireRecords
// (per connection segment, delimited by kConnectionStart), so a server's
// deviation column can be *derived from traces* instead of being read back
// from bespoke probe counters; core::derive_table3_quirks() does that
// mapping. Its one walk serves both outputs: tag counts for the metrics
// fold (fold_ring) and per-record tags, from which append_annotated_jsonl
// writes the JSONL export without walking the ring again.
//
// Reaction-style tags follow one scheme: `<axis>-ignored`, `<axis>-goaway`,
// `<axis>-goaway-debug` — the RFC-prescribed reaction (RST_STREAM for
// stream-scoped errors, plain GOAWAY for connection-scoped ones) is never
// tagged. The `-goaway-debug` variants mark GOAWAYs carrying debug data,
// which the paper counts separately (§V-D).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/event.h"
#include "trace/recorder.h"

namespace h2r::trace {

namespace tags {

// §6.9 WINDOW_UPDATE with a zero increment (RFC: stream error / conn error).
inline constexpr const char* kZeroWuStreamIgnored =
    "zero-window-update-stream-ignored";
inline constexpr const char* kZeroWuStreamGoaway =
    "zero-window-update-stream-goaway";
inline constexpr const char* kZeroWuStreamGoawayDebug =
    "zero-window-update-stream-goaway-debug";
inline constexpr const char* kZeroWuConnIgnored =
    "zero-window-update-connection-ignored";
inline constexpr const char* kZeroWuConnGoawayDebug =
    "zero-window-update-connection-goaway-debug";

// §6.9.1 window overflow past 2^31-1 (RFC: RST_STREAM / GOAWAY).
inline constexpr const char* kLargeWuStreamIgnored =
    "large-window-update-stream-ignored";
inline constexpr const char* kLargeWuStreamGoaway =
    "large-window-update-stream-goaway";
inline constexpr const char* kLargeWuStreamGoawayDebug =
    "large-window-update-stream-goaway-debug";
inline constexpr const char* kLargeWuConnIgnored =
    "large-window-update-connection-ignored";
inline constexpr const char* kLargeWuConnGoawayDebug =
    "large-window-update-connection-goaway-debug";

// §5.3.1 self-dependent stream (RFC: stream error PROTOCOL_ERROR).
inline constexpr const char* kSelfDependencyIgnored = "self-dependency-ignored";
inline constexpr const char* kSelfDependencyGoaway = "self-dependency-goaway";
inline constexpr const char* kSelfDependencyGoawayDebug =
    "self-dependency-goaway-debug";

// §6.9/§4.2: flow control governs DATA only; a request that gets neither
// HEADERS nor an error under INITIAL_WINDOW_SIZE = 0 reveals flow control
// misapplied to HEADERS (the LiteSpeed deviation).
inline constexpr const char* kFlowControlOnHeaders = "flow-control-on-headers";

// §V-D1 small-window deviations: a zero-length END_STREAM DATA frame in
// place of window-respecting chunks; or a response that never starts.
inline constexpr const char* kZeroLengthDataUnderTinyWindow =
    "zero-length-data-under-tiny-window";
inline constexpr const char* kStalledUnderTinyWindow =
    "stalled-under-tiny-window";

// §6.9: DATA beyond the advertised stream / connection budget.
inline constexpr const char* kDataExceedsStreamWindow =
    "data-exceeds-stream-window";
inline constexpr const char* kDataExceedsConnWindow =
    "data-exceeds-connection-window";

// §5.3 scheduling: DATA on a stream while a declared ancestor is requested,
// unfinished and unreset (round-robin servers fail Algorithm 1 this way).
inline constexpr const char* kPriorityInversion = "priority-inversion";

// RFC 7541: >= 2 response header blocks with zero dynamic-table insertions
// (the "support*" compression column — ratio pinned at 1).
inline constexpr const char* kHpackNoDynamicIndexing =
    "hpack-no-dynamic-indexing";

// Mitigation annotation class: server::MitigationPolicy reactions, carried
// on ENHANCE_YOUR_CALM-coded frames and kMitigation escalation events. The
// quirk passes above skip these frames entirely so a mitigation-enabled
// profile derives the same Table III row as its unmitigated twin.
inline constexpr const char* kMitigationThrottle = "mitigation-throttle";
inline constexpr const char* kMitigationRst = "mitigation-rst";
inline constexpr const char* kMitigationGoaway = "mitigation-goaway";
inline constexpr const char* kMitigationRelease = "mitigation-release";

}  // namespace tags

/// Tag-occurrence counts keyed by the interned tag constants above. Keyed
/// by pointer identity (the annotator only ever emits tags::k* constants),
/// so the hot scan path counts violations with zero string traffic.
using TagCounts = std::vector<std::pair<const char*, std::uint64_t>>;

/// (record index, tag) pairs, one per tag attached, in the order the passes
/// attach them — not sorted by index until append_annotated_jsonl() sorts
/// them. The index is the record's position in the ring
/// (RingRecorder::at()).
using RecordTags = std::vector<std::pair<std::size_t, const char*>>;

class MetricsRecorder;   // metrics.h
struct MetricsRegistry;  // metrics.h

/// Scans @p ring's WireRecords connection by connection and accumulates
/// tag occurrence counts into @p counts (appended, not cleared). When
/// @p fold is non-null every record is additionally folded into it in trace
/// order during the segmentation sweep (MetricsRecorder::fold_record, with
/// the record's exact ring sequence) — the wiretap metrics ride the same
/// walk, so the whole trace is consumed in a single pass over the 32-byte
/// records. When @p record_tags is non-null each tag is also appended to it
/// with the index of the record it lands on.
void annotate_ring(const RingRecorder& ring, TagCounts& counts,
                   MetricsRecorder* fold = nullptr,
                   RecordTags* record_tags = nullptr);

/// Appends @p ring's JSONL to @p out: one line per record
/// (seq = first_seq() + index), each carrying the violation tags that
/// @p record_tags — collected by one annotator walk of this ring
/// (fold_ring, or annotate_ring) — attaches to it, in pass order, written
/// by append_jsonl() with @p site prepended when non-empty. Sorts
/// @p record_tags by index in place. Deterministic: identical rings give
/// byte-identical output.
void append_annotated_jsonl(std::string& out, const RingRecorder& ring,
                            RecordTags& record_tags,
                            std::string_view site = {});

/// Annotates @p ring and folds it into @p registry in one walk:
/// annotate_ring() with @p folder as the tee, then one add_violation() per
/// tag count. @p folder, @p counts and @p record_tags are caller scratch,
/// reused so a warm fold allocates nothing: @p folder is rebound onto
/// @p registry and finished, and @p counts and @p record_tags are cleared
/// first and hold this ring's tag counts and per-record tags afterwards —
/// what append_annotated_jsonl() writes the ring's JSONL from.
void fold_ring(const RingRecorder& ring, MetricsRegistry& registry,
               MetricsRecorder& folder, TagCounts& counts,
               RecordTags& record_tags);

}  // namespace h2r::trace
