// H2Wiretap sinks.
//
// A `Recorder*` threads through ClientOptions / Http2Server / Target; null
// means tracing is off and every hook reduces to one pointer test (the
// "null sink" — measured by bench_scan_throughput's exchange_untraced /
// exchange_traced rows). The base class encodes each record() into a
// fixed-width binary WireRecord and stamps sequence numbers (and the
// virtual-clock time when a clock is attached) so sinks see a totally
// ordered stream. Concrete sinks split two ways:
//
//   RingRecorder     retains WireRecords (bounded ring or unbounded tape)
//                    plus an interned note table — the hot-path sink; the
//                    offline decoder expands it back into TraceEvents.
//   DecodedRecorder  adapter for live consumers (MetricsRecorder in
//                    metrics.h, SequenceDetector in detector.h,
//                    VectorRecorder below): decodes each record into one
//                    reusable scratch TraceEvent and forwards it to the
//                    classic on_event(const TraceEvent&) hook.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "h2/frame.h"
#include "h2/frame_view.h"
#include "net/clock.h"
#include "trace/event.h"
#include "trace/wire_record.h"

namespace h2r::trace {

/// Interned note storage: ref 0 is always the empty string; equal strings
/// share one ref. Lookup is an open-addressed probe over precomputed
/// hashes — no allocation unless a genuinely new note appears (notes come
/// from small fixed vocabularies: error-code names, fault kinds,
/// connection labels).
class StringTable {
 public:
  StringTable() { clear(); }

  /// Returns the ref for @p s, interning it on first sight.
  std::uint32_t intern(std::string_view s);
  [[nodiscard]] std::string_view at(std::uint32_t ref) const noexcept {
    return ref < live_ ? std::string_view(strings_[ref]) : std::string_view{};
  }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Back to just the empty string. Keeps allocated capacity — including
  /// the retired entries' string buffers, which intern() overwrites in
  /// place, so a recorder reused across connections stops allocating once
  /// its note vocabulary has been seen.
  void clear();

 private:
  void rehash(std::size_t buckets);

  std::vector<std::string> strings_;   // strings_[0..live_) live; rest retired
  std::size_t live_ = 0;               // interned entry count (>= 1: ref 0 = "")
  std::vector<std::uint64_t> hashes_;  // hashes_[i] = hash(strings_[i])
  std::vector<std::uint32_t> slots_;   // open addressing; ref+1, 0 = empty
};

class Recorder {
 public:
  virtual ~Recorder() = default;

  /// Encodes @p args into a WireRecord, stamps seq/time, and forwards to
  /// the sink. Not reentrant. `args.note` is borrowed only for the call.
  void record(const EventArgs& args) {
    WireRecord rec;
    if (clock_ != nullptr) {
      rec.time_bits = std::bit_cast<std::uint64_t>(clock_->now_ms());
    }
    rec.stream_id = args.stream_id;
    rec.wire_length = args.wire_length;
    rec.detail_a = args.detail_a;
    rec.detail_b = args.detail_b;
    rec.dir = static_cast<std::uint8_t>(args.dir);
    rec.kind = static_cast<std::uint8_t>(args.kind);
    rec.frame_type = args.frame_type;
    rec.flags = args.flags;
    on_record(next_seq_++, rec, args.note);
  }

  /// Records the kFrame event for @p frame as serialized (@p wire_length
  /// octets including the frame header). Same per-type details as
  /// frame_event() — see event.h — without constructing a TraceEvent.
  void record_frame(Direction dir, const h2::Frame& frame,
                    std::size_t wire_length);
  /// Same, straight off a parsed FrameView — no materialize() copy. The
  /// record is identical to record_frame(dir, materialize(view), ...).
  void record_frame(Direction dir, const h2::FrameView& view,
                    std::size_t wire_length);

  /// Marks the start of a new connection; @p label (host, probe name, ...)
  /// lands in the event's note. Segmentation boundaries for the annotator
  /// and for per-connection metrics.
  void begin_connection(std::string_view label) {
    record({.kind = EventKind::kConnectionStart, .note = label});
  }

  /// Re-records an already-encoded record: stamps a fresh seq but keeps
  /// the record's own timestamp. This is the tape-flush path — a per-
  /// connection ring replays into the process-wide sink, and flush order
  /// becomes the total order.
  void replay_record(const WireRecord& rec, std::string_view note) {
    on_record(next_seq_++, rec, note);
  }

  /// Attaches a virtual clock; events record now_ms() from then on.
  void set_clock(const net::VirtualClock* clock) noexcept { clock_ = clock; }

  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return next_seq_;
  }

 protected:
  /// The sink hook: @p note aliases caller storage (or this recorder's
  /// GOAWAY scratch) and is only valid for the duration of the call.
  virtual void on_record(std::uint64_t seq, const WireRecord& rec,
                         std::string_view note) = 0;

  /// Restarts event numbering from zero — for sinks that drop their
  /// retained events and start a logically new trace (RingRecorder::clear,
  /// VectorRecorder::clear), so a reused sink's output matches a freshly
  /// constructed one's.
  void restart_sequence() noexcept { next_seq_ = 0; }
  /// Consumes @p n sequence numbers for records this sink never saw.
  void skip_sequence(std::uint64_t n) noexcept { next_seq_ += n; }

 private:
  std::uint64_t next_seq_ = 0;
  const net::VirtualClock* clock_ = nullptr;
  std::string note_scratch_;  ///< GOAWAY "name:debug" assembly, reused
};

/// Null-safe connection marker, for call sites holding a maybe-null sink.
inline void begin(Recorder* recorder, std::string_view label) {
  if (recorder != nullptr) recorder->begin_connection(label);
}

/// Retains WireRecords — the hot-path sink. With capacity 0 (the default)
/// it is an unbounded tape preserving every record, the retaining mode the
/// scan's per-site scratch uses. With a nonzero capacity it is a bounded
/// ring: the newest `capacity` records are kept, older ones are evicted
/// oldest-first and counted in drops() — the always-on serving mode, where
/// a trace must never grow with connection lifetime.
class RingRecorder : public Recorder {
 public:
  explicit RingRecorder(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  /// Ring bound; 0 = unbounded tape.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records evicted by the bounded ring since the last clear().
  [[nodiscard]] std::uint64_t drops() const noexcept { return dropped_; }
  /// Sequence number of the oldest retained record (0 until a drop).
  [[nodiscard]] std::uint64_t first_seq() const noexcept { return dropped_; }
  /// i-th oldest retained record / its note.
  [[nodiscard]] const WireRecord& at(std::size_t i) const noexcept {
    return records_[index(i)];
  }
  [[nodiscard]] std::string_view note_at(std::size_t i) const noexcept {
    return notes_.at(records_[index(i)].note_ref);
  }

  /// Expands the retained records into TraceEvents (seq = first_seq() + i,
  /// exact time round-trip, empty tags). Overwrites @p out in place,
  /// reusing element capacity — allocation-free once warmed up.
  void decode_into(std::vector<TraceEvent>& out) const;
  [[nodiscard]] std::vector<TraceEvent> decode() const {
    std::vector<TraceEvent> out;
    decode_into(out);
    return out;
  }

  /// Replays every retained record into @p sink in order, preserving
  /// timestamps; @p sink stamps fresh sequence numbers.
  void replay_into(Recorder& sink) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      sink.replay_record(at(i), note_at(i));
    }
  }

  /// Replays @p tape's whole history into this ring: the result equals
  /// replaying every record the tape ever saw, in order. Records the tape
  /// evicted count as drops here, and notes intern in first-seen order.
  /// Exact only when those evictions would have been evicted here too:
  /// requires tape.drops() == 0 or tape.size() >= capacity() > 0.
  void append_tape(const RingRecorder& tape);

  /// Appends the binary dump format (see serialize() in recorder.cc for
  /// the layout) to @p out.
  void serialize(std::string& out) const;

  /// Drops every retained record, the note table, and the drop counter,
  /// and restarts numbering: a cleared ring's trace is indistinguishable
  /// from a fresh one's. Keeps allocated capacity.
  void clear() noexcept {
    records_.clear();
    head_ = 0;
    dropped_ = 0;
    notes_.clear();
    restart_sequence();
  }

 protected:
  void on_record(std::uint64_t seq, const WireRecord& rec,
                 std::string_view note) override {
    (void)seq;
    WireRecord stored = rec;
    stored.note_ref = note.empty() ? 0 : notes_.intern(note);
    if (capacity_ == 0 || records_.size() < capacity_) {
      records_.push_back(stored);
    } else {
      records_[head_] = stored;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
    }
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t i) const noexcept {
    const std::size_t j = head_ + i;
    return j >= records_.size() ? j - records_.size() : j;
  }

  std::vector<WireRecord> records_;
  std::size_t head_ = 0;  ///< index of the oldest record once wrapped
  std::size_t capacity_;  ///< 0 = unbounded
  std::uint64_t dropped_ = 0;
  StringTable notes_;
};

/// Parses a binary dump produced by RingRecorder::serialize() back into
/// TraceEvents. Strict: bad magic/version, truncation, trailing garbage,
/// or an out-of-range note ref fail the parse. @p drops receives the
/// dump's recorded eviction count.
[[nodiscard]] bool parse_trace_bin(std::string_view bytes,
                                   std::vector<TraceEvent>& out,
                                   std::uint64_t& drops, std::string& error);

/// Adapter for live consumers: decodes each record into one reusable
/// scratch TraceEvent and forwards it to on_event() — the classic hook,
/// unchanged since the JSONL-first recorder, so MetricsRecorder and
/// SequenceDetector logic runs identically live and on replayed traces.
class DecodedRecorder : public Recorder {
 protected:
  void on_record(std::uint64_t seq, const WireRecord& rec,
                 std::string_view note) final {
    decode_record(seq, rec, note, scratch_);
    on_event(scratch_);
  }

  virtual void on_event(const TraceEvent& event) = 0;

 private:
  TraceEvent scratch_;
};

/// Retains every event in decoded form — the test-facing tape. Prefer
/// RingRecorder on hot paths; this adapter exists for tests and offline
/// flows that want to poke TraceEvents directly (the violation annotator
/// writes tags in place).
class VectorRecorder : public DecodedRecorder {
 public:
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Mutable access for the violation annotator (tags are written in place).
  [[nodiscard]] std::vector<TraceEvent>& events() noexcept { return events_; }

  /// Drops every retained event and restarts numbering: a cleared
  /// recorder's trace is indistinguishable from a fresh one's.
  void clear() noexcept {
    events_.clear();
    restart_sequence();
  }

 protected:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace h2r::trace
