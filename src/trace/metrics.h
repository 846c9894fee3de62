// H2Wiretap aggregation: counters + histograms over trace events.
//
// A MetricsRegistry is a plain value — each scan worker folds its own sites
// into a private registry and merge() combines them; every field is a sum
// (or a bucket-wise sum), so the merged result is independent of how sites
// were sharded across `H2R_THREADS` workers. to_json()/to_text() emit
// snapshots with stable field ordering, byte-identical for identical
// registries.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "h2/constants.h"
#include "trace/event.h"
#include "trace/wire_record.h"

namespace h2r::trace {

/// Fixed log2-bucket histogram: bucket 0 holds zeros, bucket i>=1 holds
/// values with bit width i (i.e. [2^(i-1), 2^i)). Fixed geometry is what
/// makes merge() a plain bucket-wise sum.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void add(std::uint64_t value, std::uint64_t times = 1);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Slot count for per-frame-type counters: the ten RFC 7540 types plus one
/// shared slot for unknown type octets.
inline constexpr std::size_t kFrameTypeSlots = 11;

/// Returns the counter slot for a raw frame-type octet.
[[nodiscard]] std::size_t frame_type_slot(std::uint8_t type_octet) noexcept;

struct MetricsRegistry {
  std::uint64_t connections = 0;
  std::uint64_t rounds = 0;
  std::array<std::uint64_t, kFrameTypeSlots> frames_c2s{};
  std::array<std::uint64_t, kFrameTypeSlots> frames_s2c{};
  std::uint64_t bytes_c2s = 0;
  std::uint64_t bytes_s2c = 0;
  std::uint64_t settings_applied = 0;
  std::uint64_t hpack_inserts = 0;
  std::uint64_t hpack_evictions = 0;
  std::uint64_t rst_streams = 0;
  std::uint64_t goaways = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t faults_injected = 0;  ///< transport faults (EventKind::kFault)
  std::uint64_t mitigation_events = 0;  ///< escalations (EventKind::kMitigation)
  /// Records evicted by bounded trace rings (RingRecorder::drops) before
  /// they could be decoded — the price of always-on tracing under a fixed
  /// memory budget. A plain sum, so merged snapshots stay independent of
  /// how connections were sharded across threads.
  std::uint64_t trace_drops = 0;
  /// Violation-annotator tag counts (tag -> occurrences). The transparent
  /// comparator lets the scan's hot fold bump counts by string_view /
  /// interned char* without materializing a temporary key per lookup;
  /// iteration order (and thus JSON output) is plain lexicographic either
  /// way.
  std::map<std::string, std::uint64_t, std::less<>> violation_tags;

  /// Adds @p n occurrences of @p tag without allocating when the key is
  /// already present.
  void add_violation(std::string_view tag, std::uint64_t n) {
    auto it = violation_tags.find(tag);
    if (it == violation_tags.end()) {
      violation_tags.emplace(std::string(tag), n);
    } else {
      it->second += n;
    }
  }

  // Park record (populated by faulted scans: each site's ledger books one
  // park per stall stretch or retry backoff, so these are sums a merge
  // keeps independent of H2R_THREADS). The reactor_* names and the JSON
  // "reactor" block predate the single scan driver and are kept as-is.
  std::uint64_t reactor_parks = 0;         ///< times any site parked
  std::uint64_t reactor_parked_rounds = 0; ///< simulated rounds spent parked
  /// Most sites simultaneously in flight on any one worker: 1 once a
  /// worker has scanned a site. Unlike every other field this is a
  /// property of the run *shape*, so merge() takes the max and to_json()
  /// never emits it — snapshots stay byte-identical across H2R_THREADS.
  /// to_text() shows it.
  std::uint64_t reactor_peak_in_flight = 0;

  Histogram frame_size;             ///< wire octets per frame, both directions
  Histogram stream_wire_bytes;      ///< wire octets per non-zero stream
  Histogram stall_span_events;      ///< stall->resume distance in trace events
  Histogram compression_ratio_pct;  ///< per-connection Equation-1 ratio x100
  Histogram park_duration_rounds;   ///< simulated rounds per individual park
  Histogram wakeups_per_site;       ///< parks each faulted site booked

  void merge(const MetricsRegistry& other);
  [[nodiscard]] std::uint64_t total_frames() const noexcept;
  [[nodiscard]] std::uint64_t total_violations() const noexcept;

  /// JSON snapshot, stable field order, no trailing whitespace.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable snapshot (same content as to_json).
  [[nodiscard]] std::string to_text() const;
};

/// Folds a ring's WireRecords into a registry, retaining nothing but small
/// per-connection state (per-stream byte tallies, open stall marks,
/// response header-block sizes for the Equation-1 compression ratio). Not a
/// sink: it reads records a RingRecorder already holds, usually as the
/// annotator's tee (fold_ring in annotate.h). Call finish() — or let the
/// destructor — to flush the final connection.
class MetricsRecorder {
 public:
  explicit MetricsRecorder(MetricsRegistry& registry) : registry_(&registry) {}
  ~MetricsRecorder() { finish(); }
  /// A copy would flush the same open connection into the registry twice.
  MetricsRecorder(const MetricsRecorder&) = delete;
  MetricsRecorder& operator=(const MetricsRecorder&) = delete;

  /// Flushes the current connection into the old registry and retargets
  /// the fold. A long-lived recorder (scan worker scratch) folds each
  /// site's trace straight into that site's destination registry instead
  /// of paying a fold-into-scratch + registry merge per site.
  void rebind(MetricsRegistry& registry) {
    finish();
    registry_ = &registry;
  }

  /// Flushes per-connection state into the registry. Idempotent.
  void finish();

  /// Folds one ring record. Records carry no tags (violation counts reach
  /// the registry through add_violation); @p seq is the record's ring
  /// sequence, RingRecorder::first_seq() + index. Defined in the header so
  /// the scan's single-pass fold inlines it into the annotator's sweep.
  void fold_record(std::uint64_t seq, const WireRecord& ev) {
    switch (kind_of(ev)) {
      case EventKind::kConnectionStart:
        flush_connection();
        ++registry_->connections;
        return;
      case EventKind::kRoundMark:
        ++registry_->rounds;
        return;
      case EventKind::kParseError:
        ++registry_->parse_errors;
        return;
      case EventKind::kSettingsApplied:
        ++registry_->settings_applied;
        return;
      case EventKind::kHpackInsert:
        registry_->hpack_inserts += a_of(ev);
        return;
      case EventKind::kHpackEvict:
        registry_->hpack_evictions += a_of(ev);
        return;
      case EventKind::kFault:
        ++registry_->faults_injected;
        return;
      case EventKind::kMitigation:
        ++registry_->mitigation_events;
        return;
      case EventKind::kWindowStall: {
        ++registry_->window_stalls;
        for (auto& [stream, open_seq] : open_stalls_) {
          if (stream == stream_of(ev)) {
            open_seq = seq;
            return;
          }
        }
        open_stalls_.emplace_back(stream_of(ev), seq);
        return;
      }
      case EventKind::kWindowResume: {
        for (auto it = open_stalls_.begin(); it != open_stalls_.end(); ++it) {
          if (it->first == stream_of(ev)) {
            registry_->stall_span_events.add(seq - it->second);
            *it = open_stalls_.back();
            open_stalls_.pop_back();
            break;
          }
        }
        return;
      }
      case EventKind::kFrame:
        break;
    }

    auto& slots = dir_of(ev) == Direction::kClientToServer
                      ? registry_->frames_c2s
                      : registry_->frames_s2c;
    ++slots[frame_type_slot(type_of(ev))];
    (dir_of(ev) == Direction::kClientToServer ? registry_->bytes_c2s
                                              : registry_->bytes_s2c) +=
        len_of(ev);
    registry_->frame_size.add(len_of(ev));
    if (stream_of(ev) != 0) {
      bool found = false;
      for (auto& [stream, bytes] : stream_bytes_) {
        if (stream == stream_of(ev)) {
          bytes += len_of(ev);
          found = true;
          break;
        }
      }
      if (!found) stream_bytes_.emplace_back(stream_of(ev), len_of(ev));
    }

    const auto type = static_cast<h2::FrameType>(type_of(ev));
    if (type == h2::FrameType::kRstStream) ++registry_->rst_streams;
    if (type == h2::FrameType::kGoaway) ++registry_->goaways;
    if (type == h2::FrameType::kHeaders &&
        dir_of(ev) == Direction::kServerToClient &&
        len_of(ev) > h2::kFrameHeaderSize) {
      // Response header block size for the paper's Equation-1 ratio. The
      // engine sends responses unpadded and without priority, so the HPACK
      // block is the whole payload.
      response_block_sizes_.push_back(len_of(ev) - h2::kFrameHeaderSize);
    }
    // A stream's wire footprint closes with END_STREAM or RST_STREAM.
    const bool ends_stream =
        ((type == h2::FrameType::kData || type == h2::FrameType::kHeaders) &&
         (flags_of(ev) & h2::flags::kEndStream) != 0) ||
        type == h2::FrameType::kRstStream;
    if (ends_stream && stream_of(ev) != 0) {
      for (auto it = stream_bytes_.begin(); it != stream_bytes_.end(); ++it) {
        if (it->first == stream_of(ev)) {
          registry_->stream_wire_bytes.add(it->second);
          *it = stream_bytes_.back();
          stream_bytes_.pop_back();
          break;
        }
      }
    }
  }

 private:
  void flush_connection();

  MetricsRegistry* registry_;
  // Per-connection scratch as flat (stream, value) vectors: a probe
  // connection keeps a handful of live streams, so linear scans beat
  // node-based maps and the fold allocates nothing per frame once warmed
  // up. Order is irrelevant — everything folds into order-independent sums.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> stream_bytes_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> open_stalls_;
  std::vector<std::uint64_t> response_block_sizes_;
};

}  // namespace h2r::trace
