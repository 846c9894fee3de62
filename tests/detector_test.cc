// SequenceDetector: per-class detection with bounded time-to-detect, zero
// false positives on the benign (and faulted) probe battery, report
// aggregation independent of H2R_THREADS sharding and of the scan's wiretap
// mode, and ring replay == live.
#include <gtest/gtest.h>

#include <string>

#include "attack/scenario.h"
#include "core/probes.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "server/profile.h"
#include "trace/detector.h"
#include "trace/recorder.h"

namespace h2r::trace {
namespace {

attack::ScenarioConfig smoke(attack::ScenarioKind kind) {
  attack::ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.rounds = 24;
  cfg.streams = 8;
  cfg.frames_per_round = 16;
  return cfg;
}

TEST(SequenceDetector, FlagsEveryAttackClassWithBoundedTimeToDetect) {
  for (attack::ScenarioKind kind : attack::all_scenarios()) {
    SCOPED_TRACE(std::string(to_string(kind)));
    SequenceDetector detector;
    core::Target target = core::Target::testbed(server::h2o_profile());
    target.recorder = &detector;
    (void)attack::AttackScenario(smoke(kind)).run(target);
    detector.finish();

    const DetectorReport& report = detector.report();
    const AttackClass expected = attack::expected_class(kind);
    EXPECT_EQ(report.connections, 1u);
    EXPECT_EQ(report.detections(expected), 1u);
    // Exactly the expected class — an attack of one class must not
    // cross-fire another's rule.
    EXPECT_EQ(report.total_detections(), 1u);
    // Detection happened mid-run, not at the end-of-trace fold.
    EXPECT_GT(report.mean_events_to_detect(expected), 0.0);
    EXPECT_GT(report.mean_rounds_to_detect(expected), 0.0);
    EXPECT_LT(report.mean_rounds_to_detect(expected), 24.0);
  }
}

TEST(SequenceDetector, BenignProbeBatteryScansClean) {
  // The whole Section III probe battery — which legitimately sends tiny
  // windows, PRIORITY frames, stream cancels and PINGs — must stay below
  // every rule threshold at default settings.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);
  ASSERT_FALSE(pop.sites.empty());

  corpus::ScanOptions opts;
  opts.threads = 2;
  opts.detect_attacks = true;
  const corpus::ScanReport report = corpus::scan_population(pop, opts);
  EXPECT_GT(report.attack_detections.connections, 0u);
  EXPECT_EQ(report.attack_detections.total_detections(), 0u);
}

TEST(SequenceDetector, FaultedBenignScanStillCleanAndCoversOutcomes) {
  // Truncated / stalled / disconnected delivery must not manufacture
  // attack signatures either, and nothing may hang.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);

  corpus::ScanOptions opts;
  opts.threads = 2;
  opts.detect_attacks = true;
  opts.fault_injection = true;
  const corpus::ScanReport report = corpus::scan_population(pop, opts);
  EXPECT_EQ(report.attack_detections.total_detections(), 0u);
  EXPECT_GT(report.fault_injected, 0u);
  EXPECT_EQ(report.fault_deadline_hits, 0u);
  // The faulted scan exercises more than one site-outcome class.
  EXPECT_GT(report.sites_ok + report.sites_retried_ok, 0u);
  EXPECT_GT(report.sites_truncated + report.sites_disconnected +
                report.sites_timed_out,
            0u);
}

TEST(SequenceDetector, ReportIndependentOfThreadCount) {
  // flagged[] and the ttd histograms are sums / bucket-wise sums, so the
  // sharding across workers must not show in the merged report.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);

  corpus::ScanOptions single;
  single.threads = 1;
  single.detect_attacks = true;
  single.fault_injection = true;
  corpus::ScanOptions pooled = single;
  pooled.threads = 3;

  const corpus::ScanReport a = corpus::scan_population(pop, single);
  const corpus::ScanReport b = corpus::scan_population(pop, pooled);
  EXPECT_EQ(a.attack_detections.to_json(), b.attack_detections.to_json());
  EXPECT_EQ(a.attack_detections.connections, b.attack_detections.connections);
}

TEST(SequenceDetector, ReplayOverRetainedTraceEqualsLiveAttachment) {
  for (attack::ScenarioKind kind :
       {attack::ScenarioKind::kSlowRead, attack::ScenarioKind::kRapidReset}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    // Live: the detector is the wiretap sink.
    SequenceDetector live;
    core::Target live_target = core::Target::testbed(server::nginx_profile());
    live_target.recorder = &live;
    (void)attack::AttackScenario(smoke(kind)).run(live_target);
    live.finish();

    // Replay: a ring retains the trace, the detector reads it back
    // afterwards.
    RingRecorder recorder;
    core::Target replay_target =
        core::Target::testbed(server::nginx_profile());
    replay_target.recorder = &recorder;
    (void)attack::AttackScenario(smoke(kind)).run(replay_target);
    SequenceDetector replay;
    replay.observe(recorder);
    replay.finish();

    EXPECT_EQ(live.report().to_json(), replay.report().to_json());
  }
}

TEST(SequenceDetector, ScanDetectionsIndependentOfWiretapMode) {
  // Detection alone, beside the wiretap metrics, and beside the JSONL
  // export: the reports must agree byte for byte, and detection must not
  // move the wire metrics a wiretap-only scan folds.
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 7, /*scale=*/1000);
  ASSERT_FALSE(pop.sites.empty());

  corpus::ScanOptions detect;
  detect.threads = 2;
  detect.detect_attacks = true;
  corpus::ScanOptions detect_metrics = detect;
  detect_metrics.wiretap_metrics = true;
  corpus::ScanOptions detect_traces = detect;
  detect_traces.wiretap_traces = true;
  corpus::ScanOptions metrics_only;
  metrics_only.threads = 2;
  metrics_only.wiretap_metrics = true;

  const corpus::ScanReport a = corpus::scan_population(pop, detect);
  const corpus::ScanReport b = corpus::scan_population(pop, detect_metrics);
  const corpus::ScanReport c = corpus::scan_population(pop, detect_traces);
  const corpus::ScanReport m = corpus::scan_population(pop, metrics_only);
  EXPECT_GT(a.attack_detections.connections, 0u);
  EXPECT_EQ(a.attack_detections.to_json(), b.attack_detections.to_json());
  EXPECT_EQ(a.attack_detections.to_json(), c.attack_detections.to_json());

  EXPECT_TRUE(a.wire_metrics_by_family.empty());  // no wiretap, no fold
  ASSERT_FALSE(b.wire_metrics_by_family.empty());
  EXPECT_EQ(b.wire_metrics.to_json(), c.wire_metrics.to_json());
  EXPECT_EQ(b.wire_metrics.to_json(), m.wire_metrics.to_json());
  for (const corpus::ScanReport* other : {&c, &m}) {
    ASSERT_EQ(other->wire_metrics_by_family.size(),
              b.wire_metrics_by_family.size());
    for (const auto& [family, metrics] : b.wire_metrics_by_family) {
      ASSERT_TRUE(other->wire_metrics_by_family.count(family)) << family;
      EXPECT_EQ(other->wire_metrics_by_family.at(family).to_json(),
                metrics.to_json())
          << family;
    }
  }
  EXPECT_FALSE(c.site_traces.empty());
}

TEST(SequenceDetector, LiveDetectionsVisibleBeforeConnectionEnds) {
  // An inline defense reads live_detections() mid-connection; the report
  // only folds at the next kConnectionStart or finish().
  SequenceDetector detector;
  core::Target target = core::Target::testbed(server::h2o_profile());
  target.recorder = &detector;
  (void)attack::AttackScenario(smoke(attack::ScenarioKind::kPingFlood))
      .run(target);
  ASSERT_EQ(detector.live_detections().size(), 1u);
  EXPECT_EQ(detector.live_detections()[0].cls, AttackClass::kControlFlood);
  EXPECT_EQ(detector.report().total_detections(), 0u);  // not folded yet
  detector.finish();
  EXPECT_EQ(detector.report().total_detections(), 1u);
}

TEST(DetectorReport, JsonIsStableAndMergeIsCommutative) {
  DetectorReport a;
  a.connections = 2;
  a.flagged[static_cast<std::size_t>(AttackClass::kSlowRead)] = 1;
  a.events_to_detect[static_cast<std::size_t>(AttackClass::kSlowRead)].add(40);
  a.rounds_to_detect[static_cast<std::size_t>(AttackClass::kSlowRead)].add(12);
  DetectorReport b;
  b.connections = 1;
  b.flagged[static_cast<std::size_t>(AttackClass::kRapidReset)] = 1;
  b.events_to_detect[static_cast<std::size_t>(AttackClass::kRapidReset)].add(9);
  b.rounds_to_detect[static_cast<std::size_t>(AttackClass::kRapidReset)].add(2);

  DetectorReport ab = a;
  ab.merge(b);
  DetectorReport ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.connections, 3u);
  EXPECT_EQ(ab.total_detections(), 2u);
  EXPECT_NE(ab.to_json().find("\"slow-read\""), std::string::npos);
}

}  // namespace
}  // namespace h2r::trace
