// Coalesced probe scheduling must be a pure performance change: a scan run
// with ProbeSession (one shared connection per site for the shareable
// probes) has to produce a ScanReport bitwise identical to the sequential
// fresh-connection-per-probe scan, for any thread count, and the session's
// individual probe results must match the probes.h free functions field
// for field on every testbed profile.
#include <gtest/gtest.h>

#include <string>

#include "core/probes.h"
#include "core/session.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "scan_fingerprint.h"
#include "server/profile.h"

namespace h2r::corpus {
namespace {

TEST(ScanCoalesce, ReportMatchesSequentialScan) {
  // 1/1000 of the epoch-2 list exercises every probe and family bucket.
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);
  ASSERT_FALSE(pop.sites.empty());

  ScanOptions sequential;
  sequential.coalesce = false;
  sequential.threads = 1;
  ScanOptions coalesced;
  coalesced.coalesce = true;
  coalesced.threads = 1;

  const std::string seq = fingerprint(scan_population(pop, sequential));
  EXPECT_EQ(seq, fingerprint(scan_population(pop, coalesced)));

  // Same equivalence under the worker pool.
  sequential.threads = 8;
  coalesced.threads = 8;
  EXPECT_EQ(seq, fingerprint(scan_population(pop, sequential)));
  EXPECT_EQ(seq, fingerprint(scan_population(pop, coalesced)));
}

TEST(ScanCoalesce, ReportMatchesSequentialUnderFaultInjection) {
  // Under FaultyTransport the scan silently pins itself sequential (retry
  // semantics are per fresh connection), so the coalesce flag must be a
  // no-op — including the ledger-derived outcome and fault counters.
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);

  ScanOptions sequential;
  sequential.coalesce = false;
  sequential.threads = 4;
  sequential.fault_injection = true;
  ScanOptions coalesced = sequential;
  coalesced.coalesce = true;

  const ScanReport a = scan_population(pop, sequential);
  const ScanReport b = scan_population(pop, coalesced);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_GT(a.fault_injected, 0u);  // the chaos path actually ran
}

TEST(ScanCoalesce, WiretapTracesUnaffectedByCoalesceFlag) {
  // The wiretap's frame record depends on the connection layout, so a
  // recording scan also stays sequential: traces and wire metrics must be
  // byte-identical whatever the flag says.
  const Population pop = generate_population(Epoch::kExp2, 9, /*scale=*/4000);
  ASSERT_FALSE(pop.sites.empty());

  ScanOptions sequential;
  sequential.coalesce = false;
  sequential.threads = 2;
  sequential.wiretap_traces = true;
  ScanOptions coalesced = sequential;
  coalesced.coalesce = true;

  const ScanReport a = scan_population(pop, sequential);
  const ScanReport b = scan_population(pop, coalesced);
  ASSERT_FALSE(a.site_traces.empty());
  EXPECT_EQ(a.site_traces, b.site_traces);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

// Field-for-field session-vs-fresh comparison on every testbed profile —
// when the aggregate test above fails, this one names the probe and the
// profile that diverged.
class SessionEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionEquivalence, ProbesMatchFreshConnections) {
  const core::Target target =
      core::Target::testbed(server::profile_by_key(GetParam()));
  core::ProbeSession session(target);

  // Mirror the scan's call order: settings first (it establishes the
  // baseline), then priority, self-dependency, push, hpack.
  const auto settings = session.settings();
  const auto prio = session.priority();
  const auto self_dep = session.self_dependency();
  const auto push = session.push();
  const auto hpack = session.hpack_ratio();

  const core::Target fresh =
      core::Target::testbed(server::profile_by_key(GetParam()));
  const auto settings_f = core::probe_settings(fresh);
  EXPECT_EQ(settings.headers_received, settings_f.headers_received);
  EXPECT_EQ(settings.settings_entry_count, settings_f.settings_entry_count);
  EXPECT_EQ(settings.header_table_size, settings_f.header_table_size);
  EXPECT_EQ(settings.max_concurrent_streams, settings_f.max_concurrent_streams);
  EXPECT_EQ(settings.initial_window_size, settings_f.initial_window_size);
  EXPECT_EQ(settings.max_frame_size, settings_f.max_frame_size);
  EXPECT_EQ(settings.max_header_list_size, settings_f.max_header_list_size);
  EXPECT_EQ(settings.preemptive_window_bonus,
            settings_f.preemptive_window_bonus);
  EXPECT_EQ(settings.server_header, settings_f.server_header);

  const auto prio_f = core::probe_priority_mechanism(fresh);
  EXPECT_EQ(prio.ran, prio_f.ran);
  EXPECT_EQ(prio.pass_by_last_data, prio_f.pass_by_last_data);
  EXPECT_EQ(prio.pass_by_first_data, prio_f.pass_by_first_data);
  EXPECT_EQ(prio.pass_by_both, prio_f.pass_by_both);
  EXPECT_EQ(prio.headers_during_zero_window, prio_f.headers_during_zero_window);

  const auto self_dep_f = core::probe_self_dependency(fresh);
  EXPECT_EQ(self_dep.reaction, self_dep_f.reaction);

  const auto push_f = core::probe_server_push(fresh);
  EXPECT_EQ(push.push_received, push_f.push_received);
  EXPECT_EQ(push.pushed_paths, push_f.pushed_paths);
  EXPECT_EQ(push.pushed_bytes, push_f.pushed_bytes);

  const auto hpack_f = core::probe_hpack_ratio(fresh);
  EXPECT_EQ(hpack.ran, hpack_f.ran);
  EXPECT_EQ(hpack.header_sizes, hpack_f.header_sizes);
  EXPECT_EQ(hpack.ratio, hpack_f.ratio);  // bitwise, not approximately
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SessionEquivalence,
    ::testing::Values("nginx", "litespeed", "h2o", "nghttpd", "tengine",
                      "apache", "gse", "cloudflare-nginx", "ideawebserver",
                      "tengine-aserver"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScanCoalesce, SessionScratchReuseIsObservablyFresh) {
  // The per-worker scratch hands the same client/engine to site after
  // site; a session on reused endpoints must observe exactly what a
  // session on fresh ones does.
  core::EndpointSlot scratch;
  const core::Target first =
      core::Target::testbed(server::profile_by_key("nginx"));
  {
    // A slot serves one session at a time: the warm-up's lease ends here.
    core::ProbeSession warmup(first, {}, &scratch);
    (void)warmup.settings();
    (void)warmup.priority();
    (void)warmup.self_dependency();
  }

  const core::Target second =
      core::Target::testbed(server::profile_by_key("gse"));
  core::ProbeSession reused(second, {}, &scratch);
  core::ProbeSession owned(second);
  EXPECT_EQ(reused.settings().server_header, owned.settings().server_header);
  EXPECT_EQ(reused.priority().pass_by_both, owned.priority().pass_by_both);
  EXPECT_EQ(reused.push().pushed_paths, owned.push().pushed_paths);
  EXPECT_EQ(reused.hpack_ratio().ratio, owned.hpack_ratio().ratio);
}

}  // namespace
}  // namespace h2r::corpus
