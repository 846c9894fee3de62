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
//
// Each case records its trace into a RingRecorder through the same
// Recorder::record() call the probe stack uses.

EventArgs frame(Direction dir, h2::FrameType type, std::uint32_t stream,
                std::uint32_t a = 0, std::uint8_t flags = 0,
                std::uint32_t b = 0) {
  return {.dir = dir,
          .kind = EventKind::kFrame,
          .stream_id = stream,
          .frame_type = static_cast<std::uint8_t>(type),
          .flags = flags,
          .detail_a = a,
          .detail_b = b};
}

/// The client's SETTINGS_INITIAL_WINDOW_SIZE taking effect at the server.
EventArgs client_iws(std::uint32_t window) {
  return {.dir = Direction::kClientToServer,
          .kind = EventKind::kSettingsApplied,
          .detail_a = 4,  // SETTINGS_INITIAL_WINDOW_SIZE
          .detail_b = window};
}

RingRecorder ring_of(const std::vector<EventArgs>& events) {
  RingRecorder ring;
  for (const EventArgs& ev : events) ring.record(ev);
  return ring;
}

/// The sorted, de-duplicated tags the annotator finds anywhere in @p ring.
Tags found_tags(const RingRecorder& ring) {
  TagCounts counts;
  annotate_ring(ring, counts);
  Tags out;
  for (const auto& [name, n] : counts) out.emplace_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

/// The tags attached to record @p index, in the order the passes attached
/// them.
Tags record_tags(const RingRecorder& ring, std::size_t index) {
  TagCounts counts;
  RecordTags per_record;
  annotate_ring(ring, counts, nullptr, &per_record);
  Tags out;
  for (const auto& [i, name] : per_record) {
    if (i == index) out.emplace_back(name);
  }
  return out;
}

constexpr auto kC2s = Direction::kClientToServer;
constexpr auto kS2c = Direction::kServerToClient;

TEST(WiretapAnnotator, LargeWindowUpdateIgnoredOnSyntheticTrace) {
  // Stream window 65535 + 2^31-1 overflows; no server reaction follows.
  const RingRecorder ring = ring_of({
      frame(kC2s, h2::FrameType::kHeaders, 1),
      frame(kC2s, h2::FrameType::kWindowUpdate, 1, 0x7FFFFFFF),
      frame(kS2c, h2::FrameType::kHeaders, 1),
  });
  EXPECT_EQ(found_tags(ring), (Tags{tags::kLargeWuStreamIgnored}));
  EXPECT_EQ(record_tags(ring, 1), (Tags{tags::kLargeWuStreamIgnored}));
}

TEST(WiretapAnnotator, ReplenishingWindowUpdatesAreNotOverflows) {
  // Regression: a client refilling exactly what DATA consumed never pushes
  // the shadow window past 2^31-1, even against a huge initial window.
  std::vector<EventArgs> events = {
      client_iws(0x7FFFFFFF),  // maximum legal window
      frame(kC2s, h2::FrameType::kHeaders, 1),
  };
  for (int i = 0; i < 4; ++i) {
    events.push_back(frame(kS2c, h2::FrameType::kData, 1, 10000));
    events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 1, 10000));
    events.push_back(frame(kC2s, h2::FrameType::kWindowUpdate, 0, 10000));
  }
  EXPECT_TRUE(found_tags(ring_of(events)).empty());
}

TEST(WiretapAnnotator, DataBeyondAdvertisedBudgetIsTagged) {
  // Client never raised the connection window beyond the 65535 default, but
  // the server shipped 80000 octets on one stream: both scopes violated.
  const RingRecorder ring = ring_of({
      client_iws(30000),
      frame(kC2s, h2::FrameType::kHeaders, 1),
      frame(kS2c, h2::FrameType::kData, 1, 40000),
      frame(kS2c, h2::FrameType::kData, 1, 40000, 0x1),
  });
  EXPECT_EQ(found_tags(ring),
            (Tags{tags::kDataExceedsConnWindow, tags::kDataExceedsStreamWindow}));
}

TEST(WiretapAnnotator, TagsOnOneRecordKeepPassOrderInJsonl) {
  // One DATA frame overruns both budgets (the data-budget pass tags the
  // stream scope, then the connection scope) while the stream's declared
  // parent, stream 1, is still unserved (the priority pass runs later and
  // adds priority-inversion). All three land on one record, in pass order.
  const RingRecorder ring = ring_of({
      client_iws(30000),
      frame(kC2s, h2::FrameType::kHeaders, 1),
      frame(kC2s, h2::FrameType::kHeaders, 3, /*a=*/1, 0,
            /*b=*/kPriorityPresentBit | 15),
      frame(kS2c, h2::FrameType::kData, 3, 70000, 0x1),
  });
  EXPECT_EQ(record_tags(ring, 3),
            (Tags{tags::kDataExceedsStreamWindow, tags::kDataExceedsConnWindow,
                  tags::kPriorityInversion}));

  TagCounts counts;
  RecordTags per_record;
  annotate_ring(ring, counts, nullptr, &per_record);
  std::string jsonl;
  append_annotated_jsonl(jsonl, ring, per_record, "multi.test");
  const std::size_t last = jsonl.rfind('\n', jsonl.size() - 2) + 1;
  EXPECT_EQ(jsonl.substr(last),
            "{\"site\":\"multi.test\",\"seq\":3,\"t\":0.000,\"dir\":\"s2c\","
            "\"kind\":\"frame\",\"stream\":3,\"type\":\"DATA\",\"flags\":1,"
            "\"len\":0,\"a\":70000,\"b\":0,\"note\":\"\",\"tags\":["
            "\"data-exceeds-stream-window\",\"data-exceeds-connection-window\","
            "\"priority-inversion\"]}\n");
}

TEST(WiretapAnnotator, TinyWindowDeviationsOnSyntheticTraces) {
  // Zero-length END_STREAM DATA before any payload under a 1-octet window.
  EXPECT_EQ(found_tags(ring_of({
                client_iws(1),
                frame(kC2s, h2::FrameType::kHeaders, 1),
                frame(kS2c, h2::FrameType::kHeaders, 1),
                frame(kS2c, h2::FrameType::kData, 1, 0, 0x1),
            })),
            (Tags{tags::kZeroLengthDataUnderTinyWindow}));

  // Same window, but the server answers with nothing at all.
  EXPECT_EQ(found_tags(ring_of({
                client_iws(1),
                frame(kC2s, h2::FrameType::kHeaders, 1),
            })),
            (Tags{tags::kStalledUnderTinyWindow}));

  // A compliant 1-octet DATA response under the same window: no tags.
  EXPECT_TRUE(found_tags(ring_of({
                             client_iws(1),
                             frame(kC2s, h2::FrameType::kHeaders, 1),
                             frame(kS2c, h2::FrameType::kHeaders, 1),
                             frame(kS2c, h2::FrameType::kData, 1, 1),
                         }))
                  .empty());
}

TEST(WiretapAnnotator, SegmentsIsolateConnections) {
  // A violation in connection 1 must not leak tags into connection 2's
  // records, and per-connection state (windows, priority tree) resets.
  const EventArgs start{.kind = EventKind::kConnectionStart};
  const RingRecorder ring = ring_of({
      start,
      frame(kC2s, h2::FrameType::kHeaders, 1),
      frame(kC2s, h2::FrameType::kWindowUpdate, 1, 0),  // zero WU
      start,
      frame(kC2s, h2::FrameType::kHeaders, 1),
      frame(kS2c, h2::FrameType::kHeaders, 1),
      frame(kS2c, h2::FrameType::kData, 1, 100, 0x1),
  });
  EXPECT_EQ(found_tags(ring), (Tags{tags::kZeroWuStreamIgnored}));
  EXPECT_EQ(record_tags(ring, 2), (Tags{tags::kZeroWuStreamIgnored}));
  for (std::size_t i = 3; i < ring.size(); ++i) {
    EXPECT_TRUE(record_tags(ring, i).empty()) << i;
  }
}

}  // namespace
}  // namespace h2r::trace
