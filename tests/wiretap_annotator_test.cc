// Violation-annotator tests: Table III from traces alone.
//
// The six testbed profiles each deviate from RFC 7540 along a known axis
// set (server/profile.cc encodes the paper's findings). Running the full
// probe suite under the H2Wiretap and annotating the trace must recover
// exactly those deviations — no more (false positives on compliant
// connections are the failure mode that would poison wild-corpus numbers),
// no fewer. derive_table3_quirks() must then agree with the probe-derived
// Table III cells, which is what makes a trace dump a sufficient artifact
// for the paper's headline table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/report.h"
#include "h2/constants.h"
#include "server/profile.h"
#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace h2r::trace {
namespace {

std::vector<std::string> traced_tags(const server::ServerProfile& profile) {
  Rng rng(7);
  RingRecorder recorder;
  const auto c =
      core::characterize_traced(core::Target::testbed(profile), rng, recorder);
  return c.violation_tags;
}

using Tags = std::vector<std::string>;

// ------------------------------------------------ six-profile quirk matrix

TEST(WiretapAnnotator, NginxQuirks) {
  EXPECT_EQ(traced_tags(server::nginx_profile()),
            (Tags{tags::kHpackNoDynamicIndexing, tags::kPriorityInversion,
                  tags::kZeroWuConnIgnored, tags::kZeroWuStreamIgnored}));
}

TEST(WiretapAnnotator, LitespeedQuirks) {
  EXPECT_EQ(traced_tags(server::litespeed_profile()),
            (Tags{tags::kFlowControlOnHeaders, tags::kPriorityInversion,
                  tags::kSelfDependencyIgnored}));
}

TEST(WiretapAnnotator, H2oQuirks) {
  EXPECT_EQ(traced_tags(server::h2o_profile()),
            (Tags{tags::kSelfDependencyGoaway}));
}

TEST(WiretapAnnotator, NghttpdQuirks) {
  EXPECT_EQ(traced_tags(server::nghttpd_profile()),
            (Tags{tags::kSelfDependencyGoaway, tags::kZeroWuStreamGoaway}));
}

TEST(WiretapAnnotator, TengineQuirks) {
  EXPECT_EQ(traced_tags(server::tengine_profile()),
            (Tags{tags::kHpackNoDynamicIndexing, tags::kPriorityInversion,
                  tags::kZeroWuConnIgnored, tags::kZeroWuStreamIgnored}));
}

TEST(WiretapAnnotator, ApacheQuirks) {
  EXPECT_EQ(traced_tags(server::apache_profile()),
            (Tags{tags::kSelfDependencyGoaway, tags::kZeroWuStreamGoaway}));
}

// --------------------------------------- trace-derived Table III equality

TEST(WiretapAnnotator, DerivedQuirksMatchProbeDerivedTable3) {
  // The nine deviation-capable rows the annotator covers; the other five
  // (ALPN/NPN/multiplexing/push/PING) are capability rows, not violations.
  const std::vector<std::string> derivable = {
      "Flow Control on DATA Frames",
      "Flow Control on HEADERS Frames",
      "Zero Window Update on stream",
      "Zero Window Update on connection",
      "Large Window Update (Connection)",
      "Large Window Update (Stream)",
      "Priority Mechanism Testing (Algorithm 1)",
      "Self-dependent Stream",
      "Header Compression",
  };
  const auto& labels = core::Characterization::row_labels();

  Rng rng(7);
  for (const auto& profile : server::testbed_profiles()) {
    RingRecorder recorder;
    const auto c = core::characterize_traced(core::Target::testbed(profile),
                                             rng, recorder);
    const auto derived = core::derive_table3_quirks(c.violation_tags);
    const auto values = c.row_values();
    for (const auto& row : derivable) {
      const auto it = std::find(labels.begin(), labels.end(), row);
      ASSERT_NE(it, labels.end()) << row;
      const auto idx = static_cast<std::size_t>(it - labels.begin());
      ASSERT_TRUE(derived.count(row)) << profile.key << ": " << row;
      EXPECT_EQ(derived.at(row), values[idx]) << profile.key << ": " << row;
    }
  }
}

// --------------------------------------------- synthetic trace edge cases

TraceEvent frame(Direction dir, h2::FrameType type, std::uint32_t stream,
                 std::uint32_t a = 0, std::uint8_t flags = 0,
                 std::uint32_t b = 0) {
  TraceEvent ev;
  ev.kind = EventKind::kFrame;
  ev.dir = dir;
  ev.frame_type = static_cast<std::uint8_t>(type);
  ev.stream_id = stream;
  ev.detail_a = a;
  ev.detail_b = b;
  ev.flags = flags;
  return ev;
}

constexpr auto kC2s = Direction::kClientToServer;
constexpr auto kS2c = Direction::kServerToClient;

TEST(WiretapAnnotator, LargeWindowUpdateIgnoredOnSyntheticTrace) {
  // Stream window 65535 + 2^31-1 overflows; no server reaction follows.
  std::vector<TraceEvent> events;
  events.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 1, 0x7FFFFFFF));
  events.push_back(frame(kS2c, h2::FrameType::kHeaders, 1));
  const auto tags = annotate_violations(events);
  EXPECT_EQ(tags, (Tags{tags::kLargeWuStreamIgnored}));
  EXPECT_EQ(events[1].tags, (Tags{tags::kLargeWuStreamIgnored}));
}

TEST(WiretapAnnotator, ReplenishingWindowUpdatesAreNotOverflows) {
  // Regression: a client refilling exactly what DATA consumed never pushes
  // the shadow window past 2^31-1, even against a huge initial window.
  std::vector<TraceEvent> events;
  TraceEvent settings;
  settings.kind = EventKind::kSettingsApplied;
  settings.dir = kC2s;
  settings.detail_a = 4;           // SETTINGS_INITIAL_WINDOW_SIZE
  settings.detail_b = 0x7FFFFFFF;  // maximum legal window
  events.push_back(settings);
  events.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  for (int i = 0; i < 4; ++i) {
    events.push_back(frame(kS2c, h2::FrameType::kData, 1, 10000));
    events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 1, 10000));
    events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 0, 10000));
  }
  EXPECT_TRUE(annotate_violations(events).empty());
}

TEST(WiretapAnnotator, DataBeyondAdvertisedBudgetIsTagged) {
  // Client never raised the connection window beyond the 65535 default, but
  // the server shipped 80000 octets on one stream: both scopes violated.
  std::vector<TraceEvent> events;
  TraceEvent settings;
  settings.kind = EventKind::kSettingsApplied;
  settings.dir = kC2s;
  settings.detail_a = 4;
  settings.detail_b = 30000;
  events.push_back(settings);
  events.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  events.push_back(frame(kS2c, h2::FrameType::kData, 1, 40000));
  events.push_back(frame(kS2c, h2::FrameType::kData, 1, 40000, 0x1));
  const auto tags = annotate_violations(events);
  EXPECT_EQ(tags,
            (Tags{tags::kDataExceedsConnWindow, tags::kDataExceedsStreamWindow}));
}

TEST(WiretapAnnotator, TinyWindowDeviationsOnSyntheticTraces) {
  // Zero-length END_STREAM DATA before any payload under a 1-octet window.
  std::vector<TraceEvent> zero_len;
  TraceEvent settings;
  settings.kind = EventKind::kSettingsApplied;
  settings.dir = kC2s;
  settings.detail_a = 4;
  settings.detail_b = 1;
  zero_len.push_back(settings);
  zero_len.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  zero_len.push_back(frame(kS2c, h2::FrameType::kHeaders, 1));
  zero_len.push_back(frame(kS2c, h2::FrameType::kData, 1, 0, 0x1));
  EXPECT_EQ(annotate_violations(zero_len),
            (Tags{tags::kZeroLengthDataUnderTinyWindow}));

  // Same window, but the server answers with nothing at all.
  std::vector<TraceEvent> stalled;
  stalled.push_back(settings);
  stalled.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  EXPECT_EQ(annotate_violations(stalled),
            (Tags{tags::kStalledUnderTinyWindow}));

  // A compliant 1-octet DATA response under the same window: no tags.
  std::vector<TraceEvent> compliant;
  compliant.push_back(settings);
  compliant.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  compliant.push_back(frame(kS2c, h2::FrameType::kHeaders, 1));
  compliant.push_back(frame(kS2c, h2::FrameType::kData, 1, 1));
  EXPECT_TRUE(annotate_violations(compliant).empty());
}

TEST(WiretapAnnotator, SegmentsIsolateConnections) {
  // A violation in connection 1 must not leak tags into connection 2's
  // events, and per-connection state (windows, priority tree) resets.
  std::vector<TraceEvent> events;
  TraceEvent start;
  start.kind = EventKind::kConnectionStart;
  events.push_back(start);
  events.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 1, 0));  // zero WU
  events.push_back(start);
  events.push_back(frame(kC2s, h2::FrameType::kHeaders, 1));
  events.push_back(frame(kS2c, h2::FrameType::kHeaders, 1));
  events.push_back(frame(kS2c, h2::FrameType::kData, 1, 100, 0x1));
  const auto tags = annotate_violations(events);
  EXPECT_EQ(tags, (Tags{tags::kZeroWuStreamIgnored}));
  for (std::size_t i = 3; i < events.size(); ++i) {
    EXPECT_TRUE(events[i].tags.empty()) << i;
  }
}

}  // namespace
}  // namespace h2r::trace
