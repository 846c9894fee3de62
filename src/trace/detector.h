// Real-time slow-HTTP/2 attack detection over the H2Wiretap event stream.
//
// "Delays have Dangerous Ends" (PAPERS.md) detects slow-rate HTTP/2 attacks
// by sequence analysis of the event stream rather than by volumetric
// thresholds; the H2Wiretap already emits exactly the events its rules need
// (frames with per-type details, SETTINGS application, round marks), and
// every rule reads only fields a WireRecord holds: kind, direction, frame
// type, flags, stream id and the two details. The SequenceDetector is a
// Recorder, so it can be attached *live* as a probe or attack runs (the
// h2olog model: always-on, cheap enough for full scans — per-record work is
// a handful of counter bumps), or observe a RingRecorder's retained
// records afterwards, as the scan does; both paths see the same records and
// produce identical reports.
//
// Detection is per connection segment (kConnectionStart delimits) and each
// attack class fires at most once per connection, recording time-to-detect
// both in events (trace records seen since the connection began) and in
// lockstep rounds. The default thresholds sit well above everything the
// benign probe battery emits, which tests/detector_test.cc pins by scanning
// a seeded FaultyTransport population and asserting zero detections.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::trace {

/// The §VI / "Delays have Dangerous Ends" attack taxonomy. Lives in trace
/// (not attack/) so the server's MitigationPolicy and the detector share one
/// vocabulary without either linking the attack client.
enum class AttackClass : std::uint8_t {
  kNone = 0,
  kSlowRead,       ///< tiny stream windows + withheld WINDOW_UPDATEs
  kSlowPost,       ///< open upload streams dribbling tiny DATA frames
  kRapidReset,     ///< request + immediate RST_STREAM churn
  kControlFlood,   ///< non-ACK PING / SETTINGS flood
  kPriorityChurn,  ///< PRIORITY tree rebuild flood
};
inline constexpr std::size_t kAttackClassCount = 6;

std::string_view to_string(AttackClass cls) noexcept;

/// Rule thresholds; the detector always runs with these defaults. They are
/// calibrated against the benign probe battery (see header comment): every
/// counter a normal scan connection reaches stays at least 4x below its
/// threshold.
struct DetectorThresholds {
  /// Client INITIAL_WINDOW_SIZE below this is "tiny" (the data_frame_control
  /// probe announces 1 on a single stream; slow-read needs many streams).
  std::uint32_t tiny_window = 1024;
  /// Slow-read: >= this many concurrent tiny-window request streams ...
  std::uint32_t slow_read_min_streams = 8;
  /// ... held open for this many rounds with zero stream WINDOW_UPDATEs.
  std::uint32_t slow_read_min_rounds = 12;
  /// Slow-POST: a single upload stream dribbling >= this many DATA frames...
  std::uint32_t slow_post_min_frames = 16;
  /// ... no larger than this, spanning >= slow_post_min_rounds rounds.
  std::uint32_t slow_post_max_chunk = 256;
  std::uint32_t slow_post_min_rounds = 12;
  /// Rapid reset: client RST_STREAM count (priority probes cancel ~1).
  std::uint32_t rapid_reset_min = 64;
  /// Control flood: non-ACK PING + non-ACK SETTINGS count (every connection
  /// sends one preface SETTINGS; ping probes send tens).
  std::uint32_t control_flood_min = 128;
  /// Priority churn: client PRIORITY frame count (Algorithm 1 sends ~5).
  std::uint32_t priority_churn_min = 128;
};

/// One detection: class plus time-to-detect from the connection's start.
struct Detection {
  AttackClass cls = AttackClass::kNone;
  std::uint64_t events_to_detect = 0;  ///< trace events into the connection
  std::uint32_t rounds_to_detect = 0;  ///< lockstep rounds into the connection
};

/// Mergeable detection aggregate. Every field is a sum or a bucket-wise sum,
/// so merging per-worker reports is independent of how connections were
/// sharded across H2R_THREADS — same guarantee as MetricsRegistry.
struct DetectorReport {
  std::uint64_t connections = 0;
  /// Connections flagged per class (index = AttackClass; slot 0 unused).
  std::array<std::uint64_t, kAttackClassCount> flagged{};
  std::array<Histogram, kAttackClassCount> events_to_detect;
  std::array<Histogram, kAttackClassCount> rounds_to_detect;

  void merge(const DetectorReport& other);
  [[nodiscard]] std::uint64_t total_detections() const noexcept;
  [[nodiscard]] std::uint64_t detections(AttackClass cls) const noexcept {
    return flagged[static_cast<std::size_t>(cls)];
  }
  /// Mean time-to-detect in events / rounds for @p cls (0 when never fired).
  [[nodiscard]] double mean_events_to_detect(AttackClass cls) const noexcept {
    return events_to_detect[static_cast<std::size_t>(cls)].mean();
  }
  [[nodiscard]] double mean_rounds_to_detect(AttackClass cls) const noexcept {
    return rounds_to_detect[static_cast<std::size_t>(cls)].mean();
  }
  /// JSON snapshot, stable field order, byte-identical for equal reports.
  [[nodiscard]] std::string to_json() const;
};

/// Sequence detector. Attach as the Recorder on a Target / client / server
/// (live, nothing retained), or read a retained ring with observe(). Call
/// finish() to fold the final connection before reading report().
class SequenceDetector : public Recorder {
 public:
  ~SequenceDetector() override { finish(); }

  /// Observes every record @p ring retains, oldest first.
  void observe(const RingRecorder& ring) {
    for (std::size_t i = 0; i < ring.size(); ++i) observe_record(ring.at(i));
  }

  /// Folds the open connection into the report. Idempotent.
  void finish();

  [[nodiscard]] const DetectorReport& report() const noexcept {
    return report_;
  }
  /// Detections for the connection currently being observed (live view —
  /// what an inline defense would act on before the connection ends).
  [[nodiscard]] const std::vector<Detection>& live_detections()
      const noexcept {
    return live_;
  }

 protected:
  void on_record(std::uint64_t /*seq*/, const WireRecord& rec,
                 std::string_view /*note*/) override {
    observe_record(rec);
  }

 private:
  struct UploadState {
    std::uint32_t first_round = 0;
    std::uint32_t last_round = 0;
    std::uint32_t dribble_frames = 0;  ///< DATA frames <= slow_post_max_chunk
    bool oversized = false;            ///< saw a chunk above the dribble cap
  };

  void observe_record(const WireRecord& rec);
  void flag(AttackClass cls);
  void fold_connection();

  DetectorReport report_;
  std::vector<Detection> live_;

  // Per-connection state, reset at every kConnectionStart.
  bool saw_connection_ = false;
  std::uint64_t conn_events_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t client_iws_ = 65535;
  std::uint32_t request_streams_ = 0;       ///< c2s HEADERS (new streams)
  std::uint32_t first_request_round_ = 0;
  bool any_request_ = false;
  std::uint32_t stream_window_updates_ = 0;  ///< c2s, stream-scoped
  std::uint32_t client_resets_ = 0;
  std::uint32_t control_frames_ = 0;         ///< non-ACK PING + SETTINGS
  std::uint32_t priority_frames_ = 0;
  std::map<std::uint32_t, UploadState> uploads_;
  std::array<bool, kAttackClassCount> fired_{};
};

}  // namespace h2r::trace
