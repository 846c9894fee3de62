// Corpus generation and scan tests: the synthetic population must carry the
// paper's marginals exactly, and a scan at reduced scale must recover them
// proportionally.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "corpus/marginals.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "corpus/site_task.h"
#include "scan_fingerprint.h"

namespace h2r::corpus {
namespace {

const Population& exp1_population() {
  static const Population pop = generate_population(Epoch::kExp1, 42);
  return pop;
}

TEST(Marginals, TableTotalsAreConsistent) {
  for (Epoch e : {Epoch::kExp1, Epoch::kExp2}) {
    const auto& m = marginals(e);
    auto sum = [](const std::vector<ValueCount>& rows) {
      std::size_t n = 0;
      for (const auto& vc : rows) n += vc.count;
      return n;
    };
    // Tables V, VI and VII each cover every responding site exactly once.
    EXPECT_EQ(sum(m.initial_window_size), m.responding_sites) << to_string(e);
    EXPECT_EQ(sum(m.max_frame_size), m.responding_sites) << to_string(e);
    EXPECT_EQ(sum(m.max_header_list_size), m.responding_sites) << to_string(e);
    // §V-D1 categories partition the responding sites.
    EXPECT_EQ(m.sframe_respecting_sites + m.sframe_zero_length_sites +
                  m.sframe_no_response_sites,
              m.responding_sites)
        << to_string(e);
    // §V-D4 stream categories partition them too.
    EXPECT_LE(m.large_wu_stream_rst_sites, m.responding_sites);
    // Table IV families fit inside the responding population.
    std::size_t family_sum = 0;
    for (const auto& [_, c] : m.server_families) family_sum += c;
    EXPECT_EQ(family_sum + m.other_family_sites, m.responding_sites);
  }
}

TEST(Population, DeterministicForSameSeed) {
  Population a = generate_population(Epoch::kExp1, 9, /*scale=*/100);
  Population b = generate_population(Epoch::kExp1, 9, /*scale=*/100);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].host, b.sites[i].host);
    EXPECT_EQ(a.sites[i].family, b.sites[i].family);
    EXPECT_EQ(a.sites[i].scheduler, b.sites[i].scheduler);
  }
}

TEST(Population, CarriesExactAdoptionCounts) {
  const auto& pop = exp1_population();
  const auto& m = marginals(Epoch::kExp1);
  std::size_t npn = 0, alpn = 0, responding = 0;
  for (const auto& s : pop.sites) {
    npn += s.npn_h2;
    alpn += s.alpn_h2;
    responding += s.responds;
  }
  EXPECT_EQ(npn, m.npn_sites);
  EXPECT_EQ(alpn, m.alpn_sites);
  EXPECT_EQ(responding, m.responding_sites);
}

TEST(Population, CarriesExactSettingsMarginals) {
  const auto& pop = exp1_population();
  const auto& m = marginals(Epoch::kExp1);
  std::map<std::int64_t, std::size_t> iws;
  for (const auto& s : pop.sites) {
    if (!s.responds) continue;
    if (s.null_settings) {
      ++iws[kNullValue];
    } else {
      ASSERT_TRUE(s.initial_window_size.has_value());
      ++iws[*s.initial_window_size];
    }
  }
  for (const auto& vc : m.initial_window_size) {
    EXPECT_EQ(iws[vc.value], vc.count) << "IWS value " << vc.value;
  }
}

TEST(Population, CarriesExactBehaviourCounts) {
  const auto& pop = exp1_population();
  const auto& m = marginals(Epoch::kExp1);
  std::size_t stall = 0, zero_len = 0, headers_ok = 0, prio_both = 0,
              prio_first = 0, prio_last = 0, self_rst = 0, push = 0;
  for (const auto& s : pop.sites) {
    if (!s.responds) continue;
    stall += s.small_window == server::SmallWindowBehavior::kStall;
    zero_len += s.small_window == server::SmallWindowBehavior::kZeroLengthData;
    headers_ok += !s.flow_control_on_headers;
    prio_both += s.scheduler == server::SchedulerKind::kPriorityTree;
    prio_first += s.scheduler == server::SchedulerKind::kPriorityStart;
    prio_last += s.scheduler == server::SchedulerKind::kFairShare;
    self_rst += s.self_dependency == server::ErrorReaction::kRstStream;
    push += s.supports_push;
  }
  EXPECT_EQ(stall, m.sframe_no_response_sites);
  EXPECT_EQ(zero_len, m.sframe_zero_length_sites);
  EXPECT_EQ(headers_ok, m.zero_window_headers_sites);
  EXPECT_EQ(prio_both, m.priority_pass_both_sites);
  EXPECT_EQ(prio_both + prio_first, m.priority_pass_first_sites);
  EXPECT_EQ(prio_both + prio_last, m.priority_pass_last_sites);
  EXPECT_EQ(self_rst, m.self_dep_rst_sites);
  EXPECT_EQ(push, m.push_sites.size());
}

TEST(Population, StallSitesAreMostlyLiteSpeed) {
  const auto& pop = exp1_population();
  const auto& m = marginals(Epoch::kExp1);
  std::size_t litespeed_stall = 0;
  for (const auto& s : pop.sites) {
    if (s.responds && s.family == "litespeed" &&
        s.small_window == server::SmallWindowBehavior::kStall) {
      ++litespeed_stall;
    }
  }
  EXPECT_EQ(litespeed_stall, m.sframe_silent_litespeed);
}

TEST(Population, PushSitesCarryThePapersHostnames) {
  const auto& pop = exp1_population();
  std::vector<std::string> hosts;
  for (const auto& s : pop.sites) {
    if (s.supports_push) hosts.push_back(s.host);
  }
  ASSERT_EQ(hosts.size(), 6u);
  EXPECT_NE(std::find(hosts.begin(), hosts.end(), "nghttp2.org"), hosts.end());
  EXPECT_NE(std::find(hosts.begin(), hosts.end(), "miconcinemas.com"),
            hosts.end());
}

TEST(Population, ScaleSubsamplesProportionally) {
  Population full = exp1_population();
  Population small = generate_population(Epoch::kExp1, 42, /*scale=*/50);
  const double ratio = static_cast<double>(small.sites.size()) /
                       static_cast<double>(full.sites.size());
  EXPECT_NEAR(ratio, 1.0 / 50.0, 0.002);
  const double resp_ratio = static_cast<double>(small.responding_count()) /
                            static_cast<double>(full.responding_count());
  EXPECT_NEAR(resp_ratio, 1.0 / 50.0, 0.005);
}

TEST(Population, SiteSpecMaterializesConsistentProfile) {
  const auto& pop = exp1_population();
  for (std::size_t i = 0; i < 50; ++i) {
    const SiteSpec& s = pop.sites[i];
    if (!s.responds) continue;
    const auto p = s.to_profile();
    EXPECT_EQ(p.scheduler, s.scheduler) << s.host;
    EXPECT_EQ(p.supports_push, s.supports_push) << s.host;
    if (!s.null_settings && s.initial_window_size) {
      EXPECT_EQ(p.initial_window_size, s.initial_window_size) << s.host;
    }
  }
}

TEST(Scan, ScaledScanRecoversMarginalShape) {
  // A 1/200 subsample scanned end-to-end through the real probe pipeline
  // must land near the scaled paper numbers in every dimension.
  Population pop = generate_population(Epoch::kExp1, 42, /*scale=*/200);
  ScanOptions opts;
  opts.threads = 4;
  const ScanReport report = scan_population(pop, opts);
  const auto& m = marginals(Epoch::kExp1);
  const double f = 1.0 / 200.0;
  auto near = [&](std::size_t got, std::size_t paper, double tol_frac,
                  const char* what) {
    const double expected = static_cast<double>(paper) * f;
    EXPECT_NEAR(static_cast<double>(got), expected,
                std::max(8.0, expected * tol_frac))
        << what;
  };
  near(report.responding_sites, m.responding_sites, 0.05, "responding");
  near(report.npn_sites, m.npn_sites, 0.05, "npn");
  near(report.alpn_sites, m.alpn_sites, 0.05, "alpn");
  near(report.sframe_respecting, m.sframe_respecting_sites, 0.1, "sframe ok");
  near(report.sframe_no_response, m.sframe_no_response_sites, 0.25, "stall");
  near(report.zero_window_headers_ok, m.zero_window_headers_sites, 0.15,
       "zero-window headers");
  near(report.zero_wu_rst, m.zero_wu_rst_sites, 0.15, "zero WU RST");
  near(report.large_wu_stream_rst, m.large_wu_stream_rst_sites, 0.15,
       "large WU RST");
  near(report.self_dep_rst, m.self_dep_rst_sites, 0.15, "self-dep RST");
  // Settings tables: the dominant IWS value must dominate the scan too.
  EXPECT_GT(report.initial_window_size.count_of(65'536),
            report.initial_window_size.count_of(0));
}

TEST(Scan, RespectsProbeToggles) {
  Population pop = generate_population(Epoch::kExp1, 42, /*scale=*/500);
  ScanOptions opts;
  opts.threads = 2;
  opts.probe_flow_control = false;
  opts.probe_priority = false;
  opts.probe_push = false;
  opts.probe_hpack = false;
  const ScanReport report = scan_population(pop, opts);
  EXPECT_GT(report.responding_sites, 0u);
  EXPECT_EQ(report.sframe_respecting, 0u);
  EXPECT_EQ(report.priority_pass_last, 0u);
  EXPECT_TRUE(report.push_hosts.empty());
  EXPECT_EQ(report.hpack_sample_size(), 0u);
}

TEST(Scan, HpackFamiliesSeparate) {
  Population pop = generate_population(Epoch::kExp1, 42, /*scale=*/100);
  ScanOptions opts;
  opts.threads = 4;
  opts.probe_flow_control = false;
  opts.probe_priority = false;
  opts.probe_push = false;
  const ScanReport report = scan_population(pop, opts);
  // GSE compresses aggressively; nginx sits at ratio 1 (§V-G).
  const auto& gse = report.hpack_ratio_by_family.at("gse");
  ASSERT_FALSE(gse.empty());
  double gse_below_03 = 0;
  for (double r : gse) gse_below_03 += r < 0.3;
  EXPECT_GT(gse_below_03 / static_cast<double>(gse.size()), 0.9);

  const auto& nginx = report.hpack_ratio_by_family.at("nginx");
  ASSERT_FALSE(nginx.empty());
  double nginx_at_1 = 0;
  for (double r : nginx) nginx_at_1 += r >= 0.97;
  EXPECT_GT(nginx_at_1 / static_cast<double>(nginx.size()), 0.8);
}

// ---------------------------------------------------------------- epoch 2

TEST(PopulationExp2, CarriesExactAdoptionCounts) {
  Population pop = generate_population(Epoch::kExp2, 42);
  const auto& m = marginals(Epoch::kExp2);
  std::size_t npn = 0, alpn = 0, responding = 0;
  for (const auto& s : pop.sites) {
    npn += s.npn_h2;
    alpn += s.alpn_h2;
    responding += s.responds;
  }
  EXPECT_EQ(npn, m.npn_sites);
  EXPECT_EQ(alpn, m.alpn_sites);
  EXPECT_EQ(responding, m.responding_sites);
}

TEST(PopulationExp2, TengineAserverAppearsOnlyInExp2) {
  Population e1 = generate_population(Epoch::kExp1, 42, 20);
  Population e2 = generate_population(Epoch::kExp2, 42, 20);
  auto count_family = [](const Population& p, const std::string& f) {
    std::size_t n = 0;
    for (const auto& s : p.sites) n += s.family == f;
    return n;
  };
  EXPECT_EQ(count_family(e1, "tengine-aserver"), 0u);
  EXPECT_GT(count_family(e2, "tengine-aserver"), 0u);
  // Tengine shrinks between experiments (the tmall.com rename, §V-B2).
  EXPECT_GT(count_family(e1, "tengine"), count_family(e2, "tengine"));
}

TEST(PopulationExp2, LiteSpeedSilentCountMatchesPaper) {
  Population pop = generate_population(Epoch::kExp2, 42);
  std::size_t litespeed_stall = 0;
  for (const auto& s : pop.sites) {
    if (s.responds && s.family == "litespeed" &&
        s.small_window == server::SmallWindowBehavior::kStall) {
      ++litespeed_stall;
    }
  }
  EXPECT_EQ(litespeed_stall, 10'472u);  // reported explicitly in §V-D1
}

TEST(PopulationExp2, FifteenPushSites) {
  Population pop = generate_population(Epoch::kExp2, 42);
  std::size_t push = 0;
  for (const auto& s : pop.sites) push += s.supports_push;
  EXPECT_EQ(push, 15u);
}

/// A 1/400 epoch-2 sample with push switched on at every fifth site (a
/// sample this small holds no push site of its own), so consecutive sites
/// change content shape both ways.
std::vector<SiteSpec> varied_sites() {
  std::vector<SiteSpec> sites = generate_population(Epoch::kExp2, 7, 400).sites;
  for (std::size_t i = 0; i < sites.size(); i += 5) sites[i].supports_push = true;
  return sites;
}

// The scan rewrites one worker scratch for site after site — its target
// (SiteSpec::fill_target), endpoint slot, transports, event log and wiretap
// ring. Scanning every site with a scratch of its own must report the same,
// wire metrics included, with faults and the wiretap on.
TEST(Scan, ReusedScratchMatchesFreshScratch) {
  Population pop;
  pop.sites = varied_sites();
  ScanOptions opts;
  opts.fault_injection = true;
  opts.wiretap_metrics = true;
  ScanReport reused;
  ScanReport fresh;
  SiteScratch scratch;
  for (const SiteSpec& spec : pop.sites) {
    scan_site(spec, opts, reused, scratch);
    SiteScratch own;
    scan_site(spec, opts, fresh, own);
  }
  EXPECT_EQ(fingerprint(reused), fingerprint(fresh));
  ASSERT_EQ(reused.wire_metrics_by_family.size(),
            fresh.wire_metrics_by_family.size());
  for (const auto& [family, metrics] : fresh.wire_metrics_by_family) {
    EXPECT_EQ(reused.wire_metrics_by_family.at(family).to_json(),
              metrics.to_json())
        << family;
  }
  EXPECT_EQ(reused.wire_metrics.to_json(), fresh.wire_metrics.to_json());
}

// fill_target() rewrites a Target that served another site into the one
// to_target() builds: host, profile, content and path.
TEST(Population, FilledTargetMatchesBuiltTarget) {
  core::Target target;
  for (const SiteSpec& spec : varied_sites()) {
    spec.fill_target(target);
    const core::Target built = spec.to_target();
    ASSERT_EQ(target.host, built.host);
    EXPECT_EQ(target.profile.key, built.profile.key);
    EXPECT_EQ(target.profile.server_header, built.profile.server_header);
    EXPECT_EQ(target.profile.max_concurrent_streams,
              built.profile.max_concurrent_streams);
    EXPECT_EQ(target.profile.initial_window_size,
              built.profile.initial_window_size);
    EXPECT_EQ(target.profile.scheduler, built.profile.scheduler);
    EXPECT_EQ(target.profile.supports_push, built.profile.supports_push);
    EXPECT_EQ(target.profile.response_indexing,
              built.profile.response_indexing);
    EXPECT_EQ(target.site.host(), built.site.host());
    EXPECT_EQ(target.site.resource_count(), built.site.resource_count());
    EXPECT_EQ(target.site.extra_headers(), built.site.extra_headers());
    EXPECT_EQ(target.site.cookie_churn(), built.site.cookie_churn());
    EXPECT_EQ(target.site.push_list("/") != nullptr,
              built.site.push_list("/") != nullptr);
    for (const char* path : {"/", "/small", "/large/1", "/object/6",
                             "/logo.png"}) {
      const server::Resource* a = target.site.find(path);
      const server::Resource* b = built.site.find(path);
      ASSERT_EQ(a != nullptr, b != nullptr) << path;
      if (a != nullptr) {
        EXPECT_EQ(*a, *b) << path;
      }
    }
    EXPECT_EQ(target.path.label, built.path.label);
    EXPECT_EQ(target.path.base_rtt_ms, built.path.base_rtt_ms);
    EXPECT_EQ(target.path.loss_rate, built.path.loss_rate);
    EXPECT_EQ(target.offers_h2, built.offers_h2);
    EXPECT_EQ(target.recorder, nullptr);
    EXPECT_EQ(target.ledger, nullptr);
    EXPECT_FALSE(target.faults.enabled);
  }
}

TEST(Scan, DeterministicAcrossRuns) {
  Population pop = generate_population(Epoch::kExp1, 7, 500);
  ScanOptions opts;
  opts.threads = 3;
  const ScanReport a = scan_population(pop, opts);
  const ScanReport b = scan_population(pop, opts);
  EXPECT_EQ(a.responding_sites, b.responding_sites);
  EXPECT_EQ(a.npn_sites, b.npn_sites);
  EXPECT_EQ(a.server_counts, b.server_counts);
  EXPECT_EQ(a.zero_wu_rst, b.zero_wu_rst);
  EXPECT_EQ(a.priority_pass_last, b.priority_pass_last);
  EXPECT_EQ(a.initial_window_size.counts(), b.initial_window_size.counts());
}

TEST(Scan, ThreadCountDoesNotChangeAggregates) {
  // Workers pull sites in whatever order they finish, so only per-site
  // facts folded into order-independent aggregates may reach the report:
  // every field, the wire-metrics JSON (the park record included) and the
  // per-site JSONL traces must be identical for any thread count.
  const Population clean_pop = generate_population(Epoch::kExp1, 7, 500);
  const Population faulted_pop =
      generate_population(Epoch::kExp2, 7, /*scale=*/1000);
  const Population traced_pop =
      generate_population(Epoch::kExp2, 9, /*scale=*/4000);

  struct Case {
    const char* name;
    const Population* pop;
    ScanOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({"clean", &clean_pop, {}});
  for (const std::uint64_t seed : {std::uint64_t{0xFA017}, std::uint64_t{2}}) {
    ScanOptions faulted;
    faulted.fault_injection = true;
    faulted.fault_seed = seed;
    cases.push_back({seed == 2 ? "faulted seed 2" : "faulted seed 0xFA017",
                     &faulted_pop, faulted});
  }
  ScanOptions traced;
  traced.wiretap_traces = true;
  cases.push_back({"traced", &traced_pop, traced});

  for (Case& c : cases) {
    c.opts.threads = 1;
    const ScanReport base = scan_population(*c.pop, c.opts);
    if (c.opts.fault_injection) {
      ASSERT_GT(base.fault_injected, 0u) << c.name;  // the chaos path ran
      // Stalls park their exchanges whoever runs them.
      EXPECT_GT(base.wire_metrics.reactor_parks, 0u) << c.name;
    } else {
      // A lockstep exchange never parks.
      EXPECT_EQ(base.wire_metrics.reactor_parks, 0u) << c.name;
      EXPECT_EQ(base.wire_metrics.reactor_parked_rounds, 0u) << c.name;
    }
    if (c.opts.wiretap_traces) {
      ASSERT_FALSE(base.site_traces.empty());
    }

    for (const int threads : {2, 8}) {
      c.opts.threads = threads;
      const ScanReport got = scan_population(*c.pop, c.opts);
      EXPECT_EQ(fingerprint(base), fingerprint(got))
          << c.name << " threads=" << threads;
      EXPECT_EQ(base.wire_metrics.to_json(), got.wire_metrics.to_json())
          << c.name << " threads=" << threads;
      EXPECT_EQ(base.site_traces, got.site_traces)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(Scan, StallStormCompletesWithoutSpinning) {
  // Worst case for the scan: (nearly) every connection faulted, so (nearly)
  // every site parks, repeatedly. Parked stretches are skipped, not pumped
  // — visible as more parked rounds than parks — and every site is still
  // classified.
  const Population pop = generate_population(Epoch::kExp2, 7, /*scale=*/1000);

  ScanOptions storm;
  storm.fault_injection = true;
  storm.fault_floor = 0.97;
  storm.threads = 2;
  const ScanReport r = scan_population(pop, storm);

  const std::size_t classified = r.sites_ok + r.sites_retried_ok +
                                 r.sites_truncated + r.sites_disconnected +
                                 r.sites_timed_out;
  EXPECT_GT(classified, 0u);
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.wire_metrics.reactor_parks, 0u);
  // Parks cover multi-round stall stretches; if the pump were spinning one
  // round per park these two would be equal.
  EXPECT_GT(r.wire_metrics.reactor_parked_rounds,
            r.wire_metrics.reactor_parks);
  EXPECT_EQ(r.wire_metrics.wakeups_per_site.count(), classified);

  // And the storm, too, is thread-count independent.
  ScanOptions one = storm;
  one.threads = 1;
  const ScanReport s = scan_population(pop, one);
  EXPECT_EQ(fingerprint(s), fingerprint(r));
  EXPECT_EQ(s.wire_metrics.to_json(), r.wire_metrics.to_json());
}

TEST(Scan, PushHostsAreTheNamedSites) {
  Population pop = generate_population(Epoch::kExp1, 42);
  // Only probe the first sites (the named ones are indices 0..5) — a full
  // push scan is exercised at scale in the §V-F bench.
  pop.sites.resize(50);
  ScanOptions opts;
  opts.threads = 2;
  opts.probe_flow_control = false;
  opts.probe_priority = false;
  opts.probe_settings = false;
  opts.probe_hpack = false;
  const ScanReport report = scan_population(pop, opts);
  ASSERT_EQ(report.push_hosts.size(), 6u);
  EXPECT_NE(std::find(report.push_hosts.begin(), report.push_hosts.end(),
                      "nghttp2.org"),
            report.push_hosts.end());
}

}  // namespace
}  // namespace h2r::corpus
