// Full characterization of one server — the per-column content of the
// paper's Table III, produced purely from wire-level observation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/probes.h"
#include "trace/annotate.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::core {

struct Characterization {
  std::string server_key;  ///< profile key / column header

  NegotiationProbeResult negotiation;
  SettingsProbeResult settings;
  MultiplexingProbeResult multiplexing;
  ConcurrencyLimitProbeResult concurrency_limit;
  DataFrameControlResult data_frame_control;
  ZeroWindowHeadersResult zero_window_headers;
  WindowUpdateProbeResult window_update;
  PriorityProbeResult priority;
  SelfDependencyProbeResult self_dependency;
  PushProbeResult push;
  HpackProbeResult hpack;
  PingProbeResult ping;

  /// Populated by characterize_traced(): the sorted violation tags the
  /// H2Wiretap annotator found across every probe connection, the wire
  /// metrics folded from the recorded ring, and the per-record tags of
  /// that walk (indices into the ring, for trace::append_annotated_jsonl).
  std::vector<std::string> violation_tags;
  trace::MetricsRegistry wire_metrics;
  trace::RecordTags record_tags;

  /// The fourteen Table III row labels, in the paper's order.
  static const std::vector<std::string>& row_labels();

  /// This server's cell values for the fourteen rows, in the same order
  /// ("support", "RST_STREAM", "pass", ...).
  [[nodiscard]] std::vector<std::string> row_values() const;
};

/// Runs every probe of Section III against @p target.
Characterization characterize(const Target& target, Rng& rng);

/// characterize() with the H2Wiretap recording every probe connection into
/// @p recorder. Afterwards the ring is annotated and folded into the
/// result's wire_metrics in one walk (trace::fold_ring); the ring itself
/// carries no tags, so an exporter writes its JSONL from the walk's
/// record_tags with trace::append_annotated_jsonl.
Characterization characterize_traced(Target target, Rng& rng,
                                     trace::RingRecorder& recorder);

/// Maps annotator violation tags onto the Table III rows they determine:
/// row label -> cell value, covering the nine deviation-capable rows (flow
/// control, window-update reactions, priority, self-dependency, header
/// compression). Rows absent from a tag set take their RFC-compliant value,
/// so a Table III column can be derived from a trace alone.
std::map<std::string, std::string> derive_table3_quirks(
    const std::vector<std::string>& tags);

/// The RFC 7540 reference column the paper prints alongside the servers.
std::vector<std::string> rfc7540_reference_column();

}  // namespace h2r::core
