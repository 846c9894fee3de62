#include "core/report.h"

#include <algorithm>

#include "trace/annotate.h"

namespace h2r::core {
namespace {

std::string yes_no(bool b) { return b ? "yes" : "no"; }
std::string support(bool b) { return b ? "support" : "no support"; }

}  // namespace

const std::vector<std::string>& Characterization::row_labels() {
  static const std::vector<std::string> kLabels = {
      "ALPN",
      "NPN",
      "Request Multiplexing",
      "Flow Control on DATA Frames",
      "Flow Control on HEADERS Frames",
      "Zero Window Update on stream",
      "Zero Window Update on connection",
      "Large Window Update (Connection)",
      "Large Window Update (Stream)",
      "Server Push",
      "Priority Mechanism Testing (Algorithm 1)",
      "Self-dependent Stream",
      "Header Compression",
      "HTTP/2 PING",
  };
  return kLabels;
}

std::vector<std::string> Characterization::row_values() const {
  // "Header Compression" is "support*" (partial) when the dynamic table is
  // provably unused for responses: the compression ratio stays at 1.
  std::string compression = "no support";
  if (hpack.ran) compression = hpack.ratio >= 0.97 ? "support*" : "support";

  return {
      support(negotiation.alpn_h2),
      support(negotiation.npn_h2),
      support(multiplexing.supported),
      yes_no(data_frame_control.outcome == SmallWindowOutcome::kRespectsWindow),
      // Flow control misapplied to HEADERS <=> HEADERS withheld at window 0.
      yes_no(!zero_window_headers.headers_received),
      std::string(to_string(window_update.zero_on_stream)),
      std::string(to_string(window_update.zero_on_connection)),
      std::string(to_string(window_update.large_on_connection)),
      std::string(to_string(window_update.large_on_stream)),
      yes_no(push.push_received),
      priority.passes() ? "pass" : "fail",
      std::string(to_string(self_dependency.reaction)),
      compression,
      support(ping.supported),
  };
}

Characterization characterize(const Target& target, Rng& rng) {
  Characterization c;
  c.server_key = target.profile.key;
  c.negotiation = probe_negotiation(target);
  c.settings = probe_settings(target);
  c.multiplexing = probe_multiplexing(target);
  c.concurrency_limit = probe_concurrency_limit(target);
  c.data_frame_control = probe_data_frame_control(target);
  c.zero_window_headers = probe_zero_window_headers(target);
  c.window_update = probe_window_update_reactions(target);
  c.priority = probe_priority_mechanism(target);
  c.self_dependency = probe_self_dependency(target);
  c.push = probe_server_push(target);
  c.hpack = probe_hpack_ratio(target);
  c.ping = probe_ping(target, /*samples=*/8, rng);
  return c;
}

Characterization characterize_traced(Target target, Rng& rng,
                                     trace::RingRecorder& recorder) {
  target.recorder = &recorder;
  Characterization c = characterize(target, rng);
  trace::MetricsRecorder folder(c.wire_metrics);
  trace::TagCounts counts;
  trace::fold_ring(recorder, c.wire_metrics, folder, counts, c.record_tags);
  // The registry starts empty, so its (sorted) tag keys are exactly the
  // tags this trace produced.
  for (const auto& [tag, n] : c.wire_metrics.violation_tags) {
    c.violation_tags.push_back(tag);
  }
  return c;
}

std::map<std::string, std::string> derive_table3_quirks(
    const std::vector<std::string>& tags) {
  namespace vt = trace::tags;
  const auto has = [&tags](const char* tag) {
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
  };
  // Reaction rows: the tag suffix names the non-compliant reaction; no tag
  // means the server reacted as RFC 7540 prescribes.
  const auto reaction_row = [&has](const char* ignored, const char* goaway,
                                   const char* goaway_debug,
                                   const char* compliant) -> std::string {
    if (has(ignored)) return "ignore";
    if (goaway != nullptr && has(goaway)) return "GOAWAY";
    if (has(goaway_debug)) return "GOAWAY+debug";
    return compliant;
  };

  std::map<std::string, std::string> rows;
  rows["Flow Control on DATA Frames"] =
      has(vt::kZeroLengthDataUnderTinyWindow) ||
              has(vt::kStalledUnderTinyWindow) ||
              has(vt::kDataExceedsStreamWindow) ||
              has(vt::kDataExceedsConnWindow)
          ? "no"
          : "yes";
  rows["Flow Control on HEADERS Frames"] =
      yes_no(has(vt::kFlowControlOnHeaders));
  rows["Zero Window Update on stream"] =
      reaction_row(vt::kZeroWuStreamIgnored, vt::kZeroWuStreamGoaway,
                   vt::kZeroWuStreamGoawayDebug, "RST_STREAM");
  rows["Zero Window Update on connection"] = reaction_row(
      vt::kZeroWuConnIgnored, nullptr, vt::kZeroWuConnGoawayDebug, "GOAWAY");
  rows["Large Window Update (Connection)"] = reaction_row(
      vt::kLargeWuConnIgnored, nullptr, vt::kLargeWuConnGoawayDebug, "GOAWAY");
  rows["Large Window Update (Stream)"] =
      reaction_row(vt::kLargeWuStreamIgnored, vt::kLargeWuStreamGoaway,
                   vt::kLargeWuStreamGoawayDebug, "RST_STREAM");
  rows["Priority Mechanism Testing (Algorithm 1)"] =
      has(vt::kPriorityInversion) ? "fail" : "pass";
  rows["Self-dependent Stream"] =
      reaction_row(vt::kSelfDependencyIgnored, vt::kSelfDependencyGoaway,
                   vt::kSelfDependencyGoawayDebug, "RST_STREAM");
  rows["Header Compression"] =
      has(vt::kHpackNoDynamicIndexing) ? "support*" : "support";
  return rows;
}

std::vector<std::string> rfc7540_reference_column() {
  return {
      "support",           // ALPN: MUST for h2-over-TLS
      "does not require",  // NPN
      "support",           // multiplexing
      "yes",               // flow control on DATA
      "no",                // flow control must NOT cover HEADERS
      "RST_STREAM",        // zero window update on stream
      "GOAWAY",            // zero window update on connection
      "GOAWAY",            // large window update (connection)
      "RST_STREAM",        // large window update (stream)
      "yes",               // server push
      "pass",              // priority mechanism
      "RST_STREAM",        // self-dependent stream
      "support",           // header compression
      "support",           // PING
  };
}

}  // namespace h2r::core
