// Attack scenario pack + server-side mitigation: every scenario terminates
// in a bounded, classified state against every testbed profile; the
// hardened MitigationPolicy degrades gracefully (throttle -> RST ->
// ENHANCE_YOUR_CALM GOAWAY); mitigation frames are tagged by the annotator
// without disturbing the Table III quirk record; and results are
// deterministic (fingerprint-stable across runs).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "attack/scenario.h"
#include "core/client.h"
#include "core/probes.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/mitigation.h"
#include "trace/annotate.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::attack {
namespace {

/// CI-sized config: above every detector threshold, seconds per cell.
ScenarioConfig smoke(ScenarioKind kind) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.rounds = 24;
  cfg.streams = 8;
  cfg.frames_per_round = 16;
  return cfg;
}

core::Target hardened_testbed(server::ServerProfile profile) {
  profile.mitigation = server::MitigationPolicy::hardened();
  return core::Target::testbed(profile);
}

TEST(AttackScenario, EveryScenarioBoundedOnEveryProfile) {
  for (const server::ServerProfile& profile : server::testbed_profiles()) {
    for (ScenarioKind kind : all_scenarios()) {
      for (bool mitigated : {false, true}) {
        const core::Target target =
            mitigated ? hardened_testbed(profile)
                      : core::Target::testbed(profile);
        const AttackResult r = AttackScenario(smoke(kind)).run(target);
        SCOPED_TRACE(profile.key + "/" + std::string(to_string(kind)) +
                     (mitigated ? "/on" : "/off"));
        EXPECT_TRUE(r.bounded());
        EXPECT_FALSE(r.deadline_hit);
        EXPECT_GT(r.rounds_run, 0u);
        if (!mitigated) {
          // Unhardened profiles reproduce the paper's servers: no
          // mitigation machinery may engage.
          EXPECT_EQ(r.final_level, server::MitigationLevel::kNone);
          EXPECT_EQ(r.suspected, trace::AttackClass::kNone);
          EXPECT_NE(r.termination, Termination::kMitigatedGoaway);
        }
      }
    }
  }
}

TEST(AttackScenario, UnmitigatedSlowReadPinsLinearlyInStreams) {
  // §VI amplification: each of the 8 streams pins a whole 512 KiB /large
  // response (the peak is sampled at acceptance, before the single octet
  // the tiny window lets out is delivered).
  const AttackResult r = AttackScenario(smoke(ScenarioKind::kSlowRead))
                             .run(core::Target::testbed(server::h2o_profile()));
  EXPECT_EQ(r.termination, Termination::kAttackerExhausted);
  EXPECT_EQ(r.peak_pinned_octets, 8u * 512u * 1024u);
  EXPECT_EQ(r.peak_active_streams, 8u);
}

TEST(AttackScenario, MitigatedSlowReadEscalatesToRstOffenders) {
  // The pinned-octets budget trips, throttle engages, then the pinning
  // streams are reset with ENHANCE_YOUR_CALM — which releases the memory,
  // so the ladder never needs the GOAWAY rung: the connection survives.
  ScenarioConfig cfg = smoke(ScenarioKind::kSlowRead);
  cfg.rounds = 64;
  const AttackResult r =
      AttackScenario(cfg).run(hardened_testbed(server::h2o_profile()));
  EXPECT_EQ(r.termination, Termination::kAttackerExhausted);
  EXPECT_EQ(r.final_level, server::MitigationLevel::kRstOffenders);
  EXPECT_EQ(r.suspected, trace::AttackClass::kSlowRead);
}

TEST(AttackScenario, MitigatedRapidResetEndsInDistinguishableGoaway) {
  const AttackResult r = AttackScenario(smoke(ScenarioKind::kRapidReset))
                             .run(hardened_testbed(server::nginx_profile()));
  EXPECT_EQ(r.termination, Termination::kMitigatedGoaway);
  EXPECT_TRUE(r.goaway_received);
  EXPECT_EQ(r.goaway_code, h2::ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(r.final_level, server::MitigationLevel::kGoaway);
  EXPECT_EQ(r.suspected, trace::AttackClass::kRapidReset);
}

TEST(AttackScenario, MitigatedFloodsClassifyAndTerminate) {
  for (ScenarioKind kind : {ScenarioKind::kPingFlood,
                            ScenarioKind::kSettingsFlood,
                            ScenarioKind::kPriorityChurn}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    const AttackResult r = AttackScenario(smoke(kind))
                               .run(hardened_testbed(server::apache_profile()));
    EXPECT_EQ(r.termination, Termination::kMitigatedGoaway);
    EXPECT_EQ(r.goaway_code, h2::ErrorCode::kEnhanceYourCalm);
    EXPECT_EQ(r.suspected, expected_class(kind));
  }
}

TEST(AttackScenario, MitigatedSlowPostTripsAgeBudget) {
  // The dribble check ages in received frames (512 by default): 8 upload
  // streams at one DATA each per round cross it near round 64.
  ScenarioConfig cfg = smoke(ScenarioKind::kSlowPost);
  cfg.rounds = 96;
  const AttackResult r =
      AttackScenario(cfg).run(hardened_testbed(server::nghttpd_profile()));
  EXPECT_GE(r.final_level, server::MitigationLevel::kThrottle);
  EXPECT_EQ(r.suspected, trace::AttackClass::kSlowPost);
  EXPECT_TRUE(r.bounded());
}

TEST(AttackScenario, ResultFingerprintIsDeterministic) {
  for (ScenarioKind kind : all_scenarios()) {
    const core::Target target = hardened_testbed(server::tengine_profile());
    const AttackResult a = AttackScenario(smoke(kind)).run(target);
    const AttackResult b = AttackScenario(smoke(kind)).run(target);
    EXPECT_EQ(a.fingerprint(), b.fingerprint())
        << "scenario " << to_string(kind);
  }
}

TEST(AttackScenario, BenignBulkTransferNeverTripsMitigation) {
  // A well-behaved client pulling every /large resource pins megabytes
  // transiently but makes progress each round — the slow-read budget's
  // stall clause must keep mitigation disengaged.
  core::Target target = hardened_testbed(server::h2o_profile());
  auto server = target.make_server();
  core::ClientConnection client(target.client_options());
  for (int i = 0; i < 8; ++i) {
    client.send_request("/large/" + std::to_string(i));
  }
  net::LockstepTransport().run(client, server);
  EXPECT_EQ(server.mitigation_level(), server::MitigationLevel::kNone);
  EXPECT_EQ(server.pinned_response_octets(), 0u);
  for (std::uint32_t sid = 1; sid <= 15; sid += 2) {
    EXPECT_TRUE(client.stream_complete(sid)) << "stream " << sid;
    EXPECT_EQ(client.data_received(sid), 512u * 1024u);
  }
}

TEST(AttackScenario, SlowReadStanceMatchesAdHocIdiom) {
  // The promoted ClientOptions knob reproduces the historical bench idiom
  // byte-for-byte: announce a tiny INITIAL_WINDOW_SIZE, never replenish
  // stream windows.
  const core::ClientOptions stance = core::ClientOptions::slow_read_stance();
  ASSERT_EQ(stance.settings.size(), 1u);
  EXPECT_EQ(stance.settings[0].first, h2::SettingId::kInitialWindowSize);
  EXPECT_EQ(stance.settings[0].second, 1u);
  EXPECT_FALSE(stance.auto_stream_window_update);
  EXPECT_TRUE(stance.auto_connection_window_update);
  // with_initial_window replaces an existing entry rather than stacking.
  core::ClientOptions opts = core::ClientOptions::slow_read_stance(1);
  opts.with_initial_window(7);
  ASSERT_EQ(opts.settings.size(), 1u);
  EXPECT_EQ(opts.settings[0].second, 7u);
}

TEST(AttackAnnotation, MitigationFramesAreTaggedAndCounted) {
  // Run a mitigated rapid-reset under the wiretap: the escalation steps
  // appear as kMitigation events, the 0xb GOAWAY carries the
  // mitigation-goaway tag, and the metrics registry counts escalations.
  trace::RingRecorder recorder;
  core::Target target = hardened_testbed(server::nginx_profile());
  target.recorder = &recorder;
  const AttackResult r = AttackScenario(smoke(ScenarioKind::kRapidReset))
                             .run(target);
  ASSERT_EQ(r.termination, Termination::kMitigatedGoaway);

  trace::TagCounts counts;
  trace::RecordTags record_tags;
  trace::annotate_ring(recorder, counts, nullptr, &record_tags);
  bool saw_escalation = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    if (trace::kind_of(recorder.at(i)) == trace::EventKind::kMitigation) {
      saw_escalation = true;
    }
  }
  bool goaway_tagged = false;
  bool rst_tagged = false;
  for (const auto& [i, name] : record_tags) {
    const std::string_view tag = name;
    if (tag == trace::tags::kMitigationGoaway) goaway_tagged = true;
    if (tag == trace::tags::kMitigationRst) rst_tagged = true;
    // Mitigation reactions must never surface as Table III quirk tags —
    // a mitigated profile derives the same quirk row as its plain twin.
    EXPECT_TRUE(tag.starts_with("mitigation-")) << "unexpected " << tag;
  }
  EXPECT_TRUE(saw_escalation);
  EXPECT_TRUE(goaway_tagged);
  EXPECT_TRUE(rst_tagged);

  trace::MetricsRegistry metrics;
  trace::MetricsRecorder folder(metrics);
  trace::TagCounts tags;
  trace::RecordTags folded_tags;
  trace::fold_ring(recorder, metrics, folder, tags, folded_tags);
  EXPECT_EQ(folded_tags, record_tags);
  EXPECT_GT(metrics.mitigation_events, 0u);
  EXPECT_NE(metrics.to_json().find("\"mitigation_events\""),
            std::string::npos);
}

}  // namespace
}  // namespace h2r::attack
