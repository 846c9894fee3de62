// H2Wiretap determinism and aggregation tests.
//
// The subsystem's whole value rests on two properties: (1) identical probe
// runs produce byte-identical JSONL traces, so traces can be diffed across
// code versions, and (2) metrics aggregation is independent of how the
// scan was sharded across H2R_THREADS workers, so reports are comparable
// across machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "corpus/population.h"
#include "net/clock.h"
#include "corpus/scan.h"
#include "server/profile.h"
#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "trace/wire_record.h"

namespace h2r::trace {
namespace {

/// Appends @p ring's annotated JSONL to @p out, as h2trace-decode
/// --annotate writes it: one annotator walk, then the writer.
void append_jsonl_of(std::string& out, const RingRecorder& ring,
                     std::string_view site) {
  TagCounts counts;
  RecordTags record_tags;
  annotate_ring(ring, counts, nullptr, &record_tags);
  append_annotated_jsonl(out, ring, record_tags, site);
}

// ------------------------------------------------------------- event model

TEST(TraceEvent, JsonlHasStableFieldOrderAndEscaping) {
  TraceEvent ev;
  ev.seq = 3;
  ev.dir = Direction::kServerToClient;
  ev.kind = EventKind::kFrame;
  ev.stream_id = 5;
  ev.frame_type = 0x0;  // DATA
  ev.flags = 0x1;
  ev.wire_length = 17;
  ev.detail_a = 8;
  ev.note = "quote\" and \\slash";
  ev.tags = {"a-tag"};

  std::string line;
  append_jsonl(line, ev, "host.test");
  EXPECT_EQ(line,
            "{\"site\":\"host.test\",\"seq\":3,\"t\":0.000,\"dir\":\"s2c\","
            "\"kind\":\"frame\",\"stream\":5,\"type\":\"DATA\",\"flags\":1,"
            "\"len\":17,\"a\":8,\"b\":0,\"note\":\"quote\\\" and "
            "\\\\slash\",\"tags\":[\"a-tag\"]}\n");
}

TEST(TraceRecorder, NullSinkIsSafeAndRingSinkStampsSequence) {
  Recorder* none = nullptr;
  begin(none, "ignored");  // null-safe helper: must be a no-op

  RingRecorder rec;
  rec.begin_connection("c1");
  rec.record({.kind = EventKind::kRoundMark});
  std::vector<TraceEvent> events = rec.decode();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kConnectionStart);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].note, "c1");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(rec.events_recorded(), 2u);

  // clear() restarts numbering: a reused sink's trace is indistinguishable
  // from a fresh one's.
  rec.clear();
  rec.begin_connection("c2");
  events = rec.decode();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].note, "c2");
}

TEST(TraceRecorder, StringTableInternsAndSurvivesClear) {
  StringTable table;
  EXPECT_EQ(table.at(0), "");  // ref 0 is always the empty string
  const std::uint32_t a = table.intern("alpha");
  const std::uint32_t b = table.intern("beta");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("alpha"), a);  // equal strings share one ref
  EXPECT_EQ(table.at(a), "alpha");
  EXPECT_EQ(table.at(b), "beta");
  // Enough distinct notes to force at least one rehash.
  for (int i = 0; i < 100; ++i) {
    const std::string s = "note-" + std::to_string(i);
    const std::uint32_t ref = table.intern(s);
    EXPECT_EQ(table.at(ref), s);
    EXPECT_EQ(table.intern(s), ref);
  }
  EXPECT_EQ(table.intern("alpha"), a);  // still stable after growth
  table.clear();
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(0), "");
}

// -------------------------------------------------------- ring semantics

TEST(RingRecorder, BoundedRingEvictsOldestFirstAndCountsDrops) {
  RingRecorder ring(/*capacity=*/4);
  for (std::uint32_t i = 0; i < 7; ++i) {
    ring.record({.kind = EventKind::kRoundMark, .detail_a = i});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.drops(), 3u);       // records 0..2 evicted, oldest first
  EXPECT_EQ(ring.first_seq(), 3u);   // oldest retained record's seq
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).detail_a, 3u + i) << i;
  }

  std::vector<TraceEvent> decoded = ring.decode();
  ASSERT_EQ(decoded.size(), 4u);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, 3u + i);       // seq survives eviction
    EXPECT_EQ(decoded[i].detail_a, 3u + i);  // newest four, in order
  }

  // clear() resets retention, the drop counter, and numbering.
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drops(), 0u);
  ring.record({.kind = EventKind::kRoundMark, .detail_a = 9});
  EXPECT_EQ(ring.decode().at(0).seq, 0u);
}

TEST(RingRecorder, UnboundedTapeRetainsEverythingAndInternsNotes) {
  RingRecorder tape;  // capacity 0 = unbounded
  tape.begin_connection("conn-a");
  for (int i = 0; i < 1000; ++i) {
    tape.record({.kind = EventKind::kRoundMark,
                 .detail_a = static_cast<std::uint32_t>(i),
                 .note = "repeated-note"});
  }
  EXPECT_EQ(tape.size(), 1001u);
  EXPECT_EQ(tape.drops(), 0u);
  EXPECT_EQ(tape.first_seq(), 0u);
  EXPECT_EQ(tape.note_at(0), "conn-a");
  EXPECT_EQ(tape.note_at(1), "repeated-note");
  // One interned copy serves every repeat.
  EXPECT_EQ(tape.at(1).note_ref, tape.at(1000).note_ref);
}

TEST(RingRecorder, ReplayIntoPreservesTimeAndRestampsSequence) {
  net::VirtualClock clock;
  RingRecorder tape;
  tape.set_clock(&clock);
  clock.advance_ms(12.5);
  tape.record({.kind = EventKind::kRoundMark, .detail_a = 1});
  clock.advance_ms(2.25);
  tape.record({.kind = EventKind::kRoundMark, .detail_a = 2, .note = "n"});

  RingRecorder sink;
  sink.begin_connection("pre-existing");  // flush appends after prior events
  tape.replay_into(sink);
  const std::vector<TraceEvent> events = sink.decode();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].seq, 1u);  // sink stamps fresh sequence numbers
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[1].time_ms, 12.5);  // record's own timestamp kept
  EXPECT_EQ(events[2].time_ms, 14.75);
  EXPECT_EQ(events[2].note, "n");
  EXPECT_EQ(events[2].detail_a, 2u);
}

TEST(MetricsRegistry, TraceDropsMergeAndConditionalExport) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Zero drops stay invisible: snapshots from drop-free runs are
  // byte-identical to the pre-ring exporter's.
  EXPECT_EQ(a.to_json().find("trace_drops"), std::string::npos);
  EXPECT_EQ(a.to_text().find("trace ring drops"), std::string::npos);

  a.trace_drops = 2;
  b.trace_drops = 3;
  a.merge(b);
  EXPECT_EQ(a.trace_drops, 5u);  // fieldwise sum: shard-count independent
  EXPECT_NE(a.to_json().find("\"trace_drops\":5"), std::string::npos);
  EXPECT_NE(a.to_text().find("trace ring drops 5"), std::string::npos);
}

// ------------------------------------------------------ binary dump format

TEST(TraceBinaryDump, SerializeParsesBackToIdenticalEvents) {
  net::VirtualClock clock;
  RingRecorder ring(/*capacity=*/3);
  ring.set_clock(&clock);
  ring.begin_connection("will-be-evicted");
  clock.advance_ms(1.125);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ring.record({.dir = Direction::kServerToClient,
                 .kind = EventKind::kFrame,
                 .stream_id = 2 * i + 1,
                 .frame_type = 0x0,
                 .flags = 0x1,
                 .wire_length = 17 + i,
                 .detail_a = 8,
                 .note = i == 2 ? "tail-note" : ""});
  }

  std::string bytes;
  ring.serialize(bytes);

  RingRecorder parsed(/*capacity=*/7);  // parsing makes it a tape
  std::string error;
  ASSERT_TRUE(parse_trace_bin(bytes, parsed, error)) << error;
  EXPECT_EQ(parsed.capacity(), 0u);
  EXPECT_EQ(parsed.drops(), 1u);  // the connection-start marker was evicted
  EXPECT_EQ(parsed.first_seq(), ring.first_seq());
  EXPECT_EQ(parsed.drops(), ring.drops());
  EXPECT_EQ(parsed.events_recorded(), ring.events_recorded());
  const std::vector<TraceEvent> got = parsed.decode();
  const std::vector<TraceEvent> want = ring.decode();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(to_jsonl(got, "s"), to_jsonl(want, "s"));
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].time_ms, want[i].time_ms);  // exact bit round-trip
  }
  std::string got_jsonl;
  std::string want_jsonl;
  append_jsonl_of(got_jsonl, parsed, "s");
  append_jsonl_of(want_jsonl, ring, "s");
  EXPECT_EQ(got_jsonl, want_jsonl);
  // The parse is serialize()'s inverse: the note table (including the
  // evicted marker's label) and the records dump back byte for byte.
  std::string again;
  parsed.serialize(again);
  EXPECT_EQ(again, bytes);
}

TEST(TraceBinaryDump, StrictParserRejectsCorruptDumps) {
  RingRecorder ring;
  ring.begin_connection("a");
  ring.record({.kind = EventKind::kRoundMark, .note = "b"});
  std::string good;
  ring.serialize(good);

  RingRecorder out;
  std::string error;
  // Every rejection leaves the ring empty, never a partial parse.
  const auto rejects = [&](std::string_view bytes) {
    error.clear();
    const bool ok = parse_trace_bin(bytes, out, error);
    return !ok && !error.empty() && out.empty() && out.drops() == 0;
  };

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_TRUE(rejects(bad_magic));

  std::string bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_TRUE(rejects(bad_version));

  // Truncation anywhere — header, note table, record block — must fail.
  for (const std::size_t len : {std::size_t{3}, std::size_t{20},
                                good.size() - 1}) {
    EXPECT_TRUE(rejects(std::string_view(good).substr(0, len))) << len;
  }

  std::string trailing = good + "x";
  EXPECT_TRUE(rejects(trailing));

  // Two states serialize() never writes. Header: magic, version, then u64
  // record_count, first_seq and drops, then u32 string_count (36 octets);
  // the note table follows as {u32 len, bytes}: "" at 36, "a" at 40, "b"
  // at 45.
  ASSERT_EQ(good.substr(44, 1), "a");
  ASSERT_EQ(good.substr(49, 1), "b");
  std::string repeated_note = good;
  repeated_note[49] = 'a';  // the table names "a" twice
  EXPECT_TRUE(rejects(repeated_note));
  EXPECT_NE(error.find("repeated"), std::string::npos) << error;

  // A record count far beyond the bytes that follow is a truncation,
  // caught before any storage is sized from it.
  std::string huge_count = good;
  huge_count[14] = 0x7f;  // record_count ~ 2^54
  EXPECT_TRUE(rejects(huge_count));

  std::string shifted_seq = good;
  shifted_seq[16] = 1;  // first_seq = 1 while drops = 0
  EXPECT_TRUE(rejects(shifted_seq));
  EXPECT_NE(error.find("first_seq"), std::string::npos) << error;

  EXPECT_TRUE(parse_trace_bin(good, out, error)) << error;
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.note_at(1), "b");
}

// ------------------------------------------------------- golden identity

/// The oracle the ring path is checked against: a sink that decodes each
/// record the moment it is recorded, under the sequence number the
/// recorder stamps — no ring storage, note interning or offline decode
/// involved.
class DecodingSink : public Recorder {
 public:
  std::vector<TraceEvent> events;

 protected:
  void on_record(std::uint64_t seq, const WireRecord& rec,
                 std::string_view note) override {
    decode_record(seq, rec, note, events.emplace_back());
  }
};

/// Re-records @p events, timestamps and notes included, into a fresh ring
/// through the replay path — the oracle's own copy for the annotator.
RingRecorder rerecord(const std::vector<TraceEvent>& events) {
  RingRecorder ring;
  for (const TraceEvent& ev : events) {
    WireRecord rec;
    rec.time_bits = std::bit_cast<std::uint64_t>(ev.time_ms);
    rec.stream_id = ev.stream_id;
    rec.wire_length = ev.wire_length;
    rec.detail_a = ev.detail_a;
    rec.detail_b = ev.detail_b;
    rec.dir = static_cast<std::uint8_t>(ev.dir);
    rec.kind = static_cast<std::uint8_t>(ev.kind);
    rec.frame_type = ev.frame_type;
    rec.flags = ev.flags;
    ring.replay_record(rec, ev.note);
  }
  return ring;
}

TEST(TraceGoldenIdentity, RingDecodePathMatchesLegacyJsonlAcrossProfiles) {
  // The contract the whole binary path rests on: record the Section III
  // exchange as 32-byte WireRecords, then annotate and export straight off
  // the ring — and the JSONL is byte-identical to decoding every record as
  // it happens and attaching the tags the annotator finds on a ring
  // re-recorded from those decoded events. One shared ring reused via
  // clear() across all six Table III profiles also proves sequence
  // restart on reuse.
  const server::ServerProfile profiles[] = {
      server::nginx_profile(),   server::litespeed_profile(),
      server::h2o_profile(),     server::nghttpd_profile(),
      server::tengine_profile(), server::apache_profile()};
  RingRecorder ring;  // unbounded retaining mode, reused across profiles
  for (const auto& profile : profiles) {
    Rng oracle_rng(7);
    DecodingSink oracle;
    core::Target oracle_target = core::Target::testbed(profile);
    oracle_target.recorder = &oracle;
    core::characterize(oracle_target, oracle_rng);
    TagCounts counts;
    RecordTags per_record;
    annotate_ring(rerecord(oracle.events), counts, nullptr, &per_record);
    for (const auto& [i, name] : per_record) {
      oracle.events[i].tags.emplace_back(name);  // pass order per record
    }
    std::vector<std::string> want_tags;
    for (const auto& [name, n] : counts) want_tags.emplace_back(name);
    std::sort(want_tags.begin(), want_tags.end());
    const std::string want = to_jsonl(oracle.events, profile.key);
    ASSERT_FALSE(want.empty()) << profile.key;

    ring.clear();
    Rng rng(7);
    core::Characterization c = core::characterize_traced(
        core::Target::testbed(profile), rng, ring);
    std::string got;
    append_annotated_jsonl(got, ring, c.record_tags, profile.key);
    EXPECT_EQ(got, want) << profile.key;
    // The ring fold's tag counts name exactly the annotated tags.
    EXPECT_EQ(c.violation_tags, want_tags) << profile.key;

    // The binary dump round-trips to the same trace, so an h2trace-decode
    // of a serialized ring reproduces the exporter's JSONL byte for byte.
    std::string bytes;
    ring.serialize(bytes);
    RingRecorder parsed;
    std::string error;
    ASSERT_TRUE(parse_trace_bin(bytes, parsed, error)) << error;
    EXPECT_EQ(parsed.drops(), 0u);
    std::string parsed_jsonl;
    append_jsonl_of(parsed_jsonl, parsed, profile.key);
    EXPECT_EQ(parsed_jsonl, want) << profile.key;
  }
}

// ------------------------------------------------------------- histograms

TEST(Histogram, Log2BucketsAndMerge) {
  Histogram h;
  h.add(0);        // bucket 0
  h.add(1);        // bucket 1
  h.add(2);        // bucket 2
  h.add(3);        // bucket 2
  h.add(1024, 5);  // bucket 11, five times
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 5 * 1024);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[11], 5u);

  Histogram other;
  other.add(3);
  other.merge(h);
  EXPECT_EQ(other.count(), 10u);
  EXPECT_EQ(other.buckets()[2], 3u);
}

TEST(MetricsRegistry, MergeIsFieldwiseSum) {
  MetricsRegistry a;
  a.connections = 2;
  a.frames_c2s[0] = 7;
  a.violation_tags["x"] = 1;
  a.frame_size.add(100);

  MetricsRegistry b;
  b.connections = 3;
  b.frames_c2s[0] = 1;
  b.violation_tags["x"] = 2;
  b.violation_tags["y"] = 5;

  a.merge(b);
  EXPECT_EQ(a.connections, 5u);
  EXPECT_EQ(a.frames_c2s[0], 8u);
  EXPECT_EQ(a.violation_tags.at("x"), 3u);
  EXPECT_EQ(a.violation_tags.at("y"), 5u);
  EXPECT_EQ(a.total_violations(), 8u);
  EXPECT_EQ(a.frame_size.count(), 1u);
}

// -------------------------------------------------- end-to-end determinism

TEST(TraceDeterminism, RepeatedCharacterizationsProduceIdenticalJsonl) {
  const auto run = [] {
    Rng rng(7);
    RingRecorder recorder;
    core::Characterization c = core::characterize_traced(
        core::Target::testbed(server::litespeed_profile()), rng, recorder);
    std::string jsonl;
    append_annotated_jsonl(jsonl, recorder, c.record_tags, "litespeed");
    return jsonl;
  };
  const std::string a = run();
  const std::string b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, CharacterizeTracedRecordsFullDuplexConversation) {
  Rng rng(7);
  RingRecorder recorder;
  const auto c = core::characterize_traced(
      core::Target::testbed(server::nghttpd_profile()), rng, recorder);

  const auto& m = c.wire_metrics;
  EXPECT_GT(m.connections, 10u);  // one per probe connection
  EXPECT_GT(m.rounds, 0u);
  // Both directions must be present: client HEADERS, server DATA.
  constexpr std::size_t kHeadersSlot = 1, kDataSlot = 0, kSettingsSlot = 4;
  EXPECT_GT(m.frames_c2s[kHeadersSlot], 0u);
  EXPECT_GT(m.frames_s2c[kDataSlot], 0u);
  EXPECT_GT(m.frames_c2s[kSettingsSlot], 0u);
  EXPECT_GT(m.frames_s2c[kSettingsSlot], 0u);
  EXPECT_GT(m.bytes_s2c, m.bytes_c2s);  // responses dwarf requests
  EXPECT_GT(m.settings_applied, 0u);
  EXPECT_GT(m.hpack_inserts, 0u);  // nghttpd indexes aggressively
  EXPECT_EQ(m.parse_errors, 0u);
  // The registry's violation counts mirror the annotated tags.
  EXPECT_EQ(m.total_violations() > 0, !c.violation_tags.empty());
  // Equation-1 ratio histogram: nghttpd compresses, so ratios land well
  // below 100%.
  EXPECT_GT(m.compression_ratio_pct.count(), 0u);
  EXPECT_LT(m.compression_ratio_pct.mean(), 100.0);
}

TEST(TraceDeterminism, ScanWiretapIndependentOfThreadCount) {
  // 1/1000 of the epoch-2 list, as in scan_determinism_test: every probe
  // and family bucket, a few hundred ms. wiretap_traces keeps the JSONL of
  // every site, so the comparison covers traces and metrics both.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);
  ASSERT_FALSE(pop.sites.empty());

  corpus::ScanOptions single;
  single.threads = 1;
  single.wiretap_metrics = true;
  single.wiretap_traces = true;
  corpus::ScanOptions pooled = single;
  pooled.threads = 8;

  const auto a = corpus::scan_population(pop, single);
  const auto b = corpus::scan_population(pop, pooled);

  EXPECT_EQ(a.wire_metrics.to_json(), b.wire_metrics.to_json());
  ASSERT_EQ(a.wire_metrics_by_family.size(), b.wire_metrics_by_family.size());
  for (const auto& [family, metrics] : a.wire_metrics_by_family) {
    ASSERT_TRUE(b.wire_metrics_by_family.count(family)) << family;
    EXPECT_EQ(metrics.to_json(), b.wire_metrics_by_family.at(family).to_json())
        << family;
  }
  EXPECT_FALSE(a.site_traces.empty());
  EXPECT_EQ(a.site_traces, b.site_traces);  // byte-identical JSONL per site
  EXPECT_GT(a.wire_metrics.total_frames(), 0u);

  // The text rendering is derived from the same registry; spot-check it
  // round-trips the headline counters.
  const std::string text = a.wire_metrics.to_text();
  EXPECT_NE(text.find("connections"), std::string::npos);

  // Tracing must not perturb the scan's published aggregates.
  corpus::ScanOptions plain;
  plain.threads = 3;
  const auto c = corpus::scan_population(pop, plain);
  EXPECT_EQ(c.responding_sites, a.responding_sites);
  EXPECT_EQ(c.server_counts, a.server_counts);
  EXPECT_TRUE(c.site_traces.empty());  // wiretap off: nothing retained
  EXPECT_EQ(c.wire_metrics.total_frames(), 0u);
}

}  // namespace
}  // namespace h2r::trace
