// The scan workloads: the paper's H2Scope scan over an epoch-2 population
// subsample, one worker thread.
//
//   scan_clean    default ScanOptions (coalesced, event loop, untraced, no
//                 faults) — core probes and the in-process engine
//   scan_faulted  the same population with fault_injection and
//                 wiretap_metrics — retries, reactor parks, FaultyTransport
//                 and the annotate+fold walk; coalescing is bypassed
//
// Each round scans the whole subsample; rounds repeat until --seconds
// elapse and every metric is the median over rounds.
#include <array>
#include <cstdio>
#include <string_view>

#include "bench.h"
#include "capture.h"
#include "core/probes.h"
#include "core/session.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "digest.h"
#include "net/transport.h"
#include "spans.h"
#include "stats.h"
#include "trace/annotate.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace perfbench {

using namespace h2r;

namespace {

/// 1/kScale of the epoch-2 population (about 2,050 h2 sites).
constexpr double kScale = 40;
/// Requests of the HPACK probe (Equation 1's H), the captured exchange the
/// h2/hpack replays run over.
constexpr int kHpackRequests = 8;
/// Sites whose HPACK-probe exchange is captured for the h2/hpack replays.
constexpr std::size_t kCaptureSites = 200;

corpus::ScanOptions workload_options(bool faulted, std::uint64_t seed) {
  corpus::ScanOptions opts;
  opts.threads = 1;
  if (faulted) {
    opts.fault_injection = true;
    opts.wiretap_metrics = true;
    opts.fault_seed = corpus::ScanOptions{}.fault_seed ^ seed;
  }
  return opts;
}

/// Families whose HPACK ratio the scan measures (Figures 4 and 5); a copy
/// of the scan's private filter, which the probe replay must follow (the
/// replay check below catches drift).
bool hpack_family_of_interest(const std::string& family) {
  return family == "gse" || family == "nginx" || family == "tengine" ||
         family == "litespeed" || family == "ideawebserver" ||
         family == "tengine-aserver";
}

/// The scan's per-site fault stream: a pure function of (fault_seed, host);
/// a copy of the scan's private derivation.
std::uint64_t site_fault_seed(std::uint64_t fault_seed,
                              std::string_view host) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : host) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  std::uint64_t mix = fault_seed ^ h;
  return splitmix64(mix);
}

/// What the per-site probe replay counted: the wire shape, and the
/// figures its check compares with the scan's report.
struct ReplayCounts {
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t retries = 0;
  std::uint64_t responding = 0;
  std::uint64_t push_hosts = 0;
  /// ok, retried_ok, truncated, disconnected, timed_out.
  std::array<std::uint64_t, 5> outcomes{};
};

/// The site-outcome class the scan books for a site whose probes left
/// @p ledger behind (its precedence: deadline, disconnect, truncation,
/// retried, ok).
std::size_t outcome_class(const net::ExchangeLedger& ledger) {
  if (ledger.final_deadline) return 4;
  if (ledger.final_disconnect) return 3;
  if (ledger.final_truncated) return 2;
  return ledger.retries > 0 ? 1 : 0;
}

/// Fails @p out where the replay did not do the scan's work: the report's
/// responding sites, push hosts, exchanges, retries and outcome classes
/// must equal the replay's.
void check_replay(const ReplayCounts& c, const corpus::ScanReport& report,
                  bool faulted, Outcome& out) {
  const auto same = [&](const char* what, std::uint64_t replay,
                        std::uint64_t scan) {
    if (replay != scan) {
      out.fail(std::string("probe replay diverged from the scan: ") + what +
               " " + std::to_string(replay) + " vs " + std::to_string(scan));
    }
  };
  same("responding sites", c.responding, report.responding_sites);
  same("push hosts", c.push_hosts, report.push_hosts.size());
  const std::array<std::uint64_t, 5> classes = {
      report.sites_ok, report.sites_retried_ok, report.sites_truncated,
      report.sites_disconnected, report.sites_timed_out};
  const char* names[] = {"ok", "retried_ok", "truncated", "disconnected",
                         "timed_out"};
  for (std::size_t i = 0; i < classes.size(); ++i) {
    same(names[i], c.outcomes[i], classes[i]);
  }
  if (faulted) {
    same("exchanges", c.exchanges, report.fault_exchanges);
    same("retries", c.retries, report.fault_retries);
  }
}

void count_ring(const trace::RingRecorder& ring, ReplayCounts& c) {
  c.records += ring.size();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::WireRecord& rec = ring.at(i);
    const auto kind = static_cast<trace::EventKind>(rec.kind);
    if (kind == trace::EventKind::kConnectionStart) ++c.connections;
    if (kind != trace::EventKind::kFrame) continue;
    ++c.frames;
    const auto type = static_cast<h2::FrameType>(rec.frame_type);
    if (type == h2::FrameType::kHeaders ||
        type == h2::FrameType::kPushPromise) {
      ++c.blocks;
    }
  }
}

/// The probe sequence of SiteTask::run, each probe family in its own span.
/// It runs the synchronous twins of the scan's probe coroutines (the two
/// are result- and ledger-identical). Coalescing applies only to clean,
/// untraced scans, as in the scan.
void run_probes(const corpus::SiteSpec& spec, const core::Target& target,
                const corpus::ScanOptions& opts, ReplayCounts& counts) {
  const auto retried = [&](auto fn) {
    return core::probe_with_retry(target, opts.retry, fn);
  };
  {
    const Scope span("core.probe.negotiation");
    if (!core::probe_negotiation(target).h2_established) return;
  }
  std::optional<core::ProbeSession> session;
  const bool hpack =
      opts.probe_hpack && hpack_family_of_interest(spec.family);
  if (opts.coalesce && !opts.fault_injection && !opts.wiretap_metrics) {
    session.emplace(target, core::ProbeSession::Options{
                                .hpack_h = opts.hpack_h, .expect_hpack = hpack});
  }
  {
    const Scope span("core.probe.settings");
    const bool responded =
        (session ? session->settings()
                 : retried([&] { return core::probe_settings(target); }))
            .headers_received;
    if (!responded) return;
    ++counts.responding;
  }
  if (opts.probe_flow_control) {
    const Scope span("core.probe.flow_control");
    (void)retried([&] { return core::probe_data_frame_control(target); });
    (void)retried([&] { return core::probe_zero_window_headers(target); });
    (void)retried([&] { return core::probe_window_update_reactions(target); });
  }
  if (opts.probe_priority) {
    const Scope span("core.probe.priority");
    (void)(session ? session->priority() : retried([&] {
      return core::probe_priority_mechanism(target);
    }));
    (void)(session ? session->self_dependency() : retried([&] {
      return core::probe_self_dependency(target);
    }));
  }
  if (opts.probe_push) {
    const Scope span("core.probe.push");
    const bool pushed =
        (session ? session->push()
                 : retried([&] { return core::probe_server_push(target); }))
            .push_received;
    if (pushed) ++counts.push_hosts;
  }
  if (hpack) {
    const Scope span("core.probe.hpack");
    (void)(session ? session->hpack_ratio() : retried([&] {
      return core::probe_hpack_ratio(target, opts.hpack_h);
    }));
  }
}

/// Replays one site the way the scan does, under a corpus.site span.
/// @p ring (optional) is the wiretap sink; with @p fold the annotate+fold
/// walk the scan runs over it is timed too. The exchange ledger is attached
/// where the scan attaches it (faulted scans) and on the untimed counting
/// pass (a ring without the fold).
void replay_site(const corpus::SiteSpec& spec,
                 const corpus::ScanOptions& opts, trace::RingRecorder* ring,
                 bool fold, ReplayCounts& counts) {
  const Scope site("corpus.site");
  core::Target target = spec.to_target();
  net::ExchangeLedger ledger;
  if (opts.fault_injection) {
    target.faults.enabled = true;
    target.faults.seed = site_fault_seed(opts.fault_seed, spec.host);
    target.faults.probability =
        net::fault_probability(target.path.loss_rate, opts.fault_floor);
  }
  if (opts.fault_injection || (ring != nullptr && !fold)) {
    target.ledger = &ledger;
  }
  target.recorder = ring;
  if (ring != nullptr) ring->clear();
  run_probes(spec, target, opts, counts);
  counts.exchanges += ledger.exchanges;
  counts.retries += ledger.retries;
  ++counts.outcomes[outcome_class(ledger)];
  if (ring == nullptr) return;
  if (fold) {
    const Scope span("trace.fold");
    trace::MetricsRegistry registry;
    trace::MetricsRecorder folder(registry);
    trace::TagCounts tags;
    trace::annotate_ring(*ring, tags, &folder);
    folder.finish();
  }
  count_ring(*ring, counts);
}

double span_total_ns(const std::map<std::string, SpanLog::Totals>& t,
                     const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.total_ns;
}

}  // namespace

Outcome run_scan(const RunArgs& args) {
  Outcome out;
  const bool faulted = args.workload == "scan_faulted";
  const corpus::ScanOptions opts = workload_options(faulted, args.seed);

  // ---- setup: population generation ---------------------------------------
  // The population scanned is the first of kSetups generations; the others
  // run between timed rounds (setups_due).
  std::vector<double> setups;
  const auto generate = [&] {
    const double t0 = wall_s();
    corpus::Population p =
        corpus::generate_population(corpus::Epoch::kExp2, args.seed, kScale);
    setups.push_back(wall_s() - t0);
    return p;
  };
  const corpus::Population pop = generate();
  const std::size_t sites = pop.sites.size();
  if (sites == 0) {
    out.fail("empty population");
    return out;
  }

  // ---- timed phase --------------------------------------------------------
  std::vector<Round> rounds;
  std::vector<std::uint64_t> digests;
  corpus::ScanReport last;
  const double start = wall_s();
  while (rounds.size() < 3 || wall_s() - start < args.seconds) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    spans().set_enabled(traced);
    Round r;
    r.ops = static_cast<double>(sites);
    r.traced = traced;
    const double w0 = wall_s();
    const double p0 = process_cpu_s();
    const std::uint64_t a0 = heap_allocations();
    {
      const Scope span("corpus.scan_population");
      last = corpus::scan_population(pop, opts);
    }
    r.allocs = heap_allocations() - a0;
    r.process_cpu_s = process_cpu_s() - p0;
    r.wall_s = wall_s() - w0;
    spans().set_enabled(args.trace);
    rounds.push_back(r);
    digests.push_back(report_digest(last));
    out.attempted += sites;
    out.failed += last.fault_deadline_hits;
    const double done = std::min(1.0, (wall_s() - start) / args.seconds);
    while (setups.size() < setups_due(done)) {
      (void)generate();
    }
  }
  while (setups.size() < kSetups) (void)generate();

  // ---- checks against the sequential reference driver --------------------
  corpus::ScanOptions ref_opts = opts;
  ref_opts.coalesce = false;
  ref_opts.event_loop = false;
  const corpus::ScanReport reference = corpus::scan_population(pop, ref_opts);
  for (const std::string& f : check_scan_report(last, reference, sites)) {
    out.fail(f);
  }
  const std::uint64_t want = report_digest(reference);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != want) {
      out.fail("round " + std::to_string(i) + " report digest differs");
    }
  }

  const auto med = [&rounds](auto field, Which which = Which::kAll) {
    return median_over(rounds, field, which);
  };
  const double n = static_cast<double>(sites);

  if (!args.trace) {
    add_end_to_end(out, setups, rounds);
    std::printf("sites %zu  rounds %zu  outcomes ok=%zu retried_ok=%zu "
                "truncated=%zu disconnected=%zu timed_out=%zu\n",
                sites, rounds.size(), last.sites_ok, last.sites_retried_ok,
                last.sites_truncated, last.sites_disconnected,
                last.sites_timed_out);
    return out;
  }

  // ---- traced run: per-layer metrics -------------------------------------
  out.add("corpus.gen_ms", median(setups) * 1e3, "ms");
  const double wall_us_per_site =
      med([n](const Round& r) { return r.wall_s * 1e6 / n; }, Which::kPlain);
  out.add("trace.overhead_frac", trace_overhead_frac(rounds), "ratio");
  out.add("corpus.peak_in_flight",
          static_cast<double>(last.wire_metrics.reactor_peak_in_flight),
          "count");
  out.add("corpus.parks_per_site",
          ratio(static_cast<double>(last.wire_metrics.reactor_parks), n),
          "count");

  // Probe replay: every site's probe sequence, each family in a span.
  // Timed passes carry the wiretap only where the workload does.
  constexpr int kReps = 3;
  const std::vector<const char*> families = {
      "negotiation", "settings", "flow_control", "priority", "push", "hpack"};
  std::map<std::string, std::vector<double>> probe_ns;
  std::vector<double> site_ns, fold_ns, replay_allocs;
  trace::RingRecorder ring;
  ReplayCounts counts;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto before = spans().totals();
    counts = {};
    const std::uint64_t a0 = heap_allocations();
    for (const corpus::SiteSpec& spec : pop.sites) {
      replay_site(spec, opts, faulted ? &ring : nullptr, faulted, counts);
    }
    replay_allocs.push_back(static_cast<double>(heap_allocations() - a0));
    const auto after = spans().totals();
    const auto delta = [&](const std::string& name) {
      return span_total_ns(after, name) - span_total_ns(before, name);
    };
    double summed = 0;
    for (const char* f : families) {
      const double d = delta(std::string("core.probe.") + f);
      probe_ns[f].push_back(d);
      summed += d;
    }
    site_ns.push_back(summed);
    fold_ns.push_back(delta("trace.fold"));
  }
  check_replay(counts, last, faulted, out);
  ReplayCounts shape = counts;
  if (!faulted) {
    // The clean workload records nothing; count its connections, frames
    // and header blocks in one extra pass with a ring attached.
    shape = {};
    for (const corpus::SiteSpec& spec : pop.sites) {
      replay_site(spec, opts, &ring, false, shape);
    }
    shape.records = 0;
  }
  for (const char* f : families) {
    out.add(std::string("core.probe_us_per_site.") + f,
            median(probe_ns[f]) / n / 1e3, "us");
  }
  const double probe_us_per_site = median(site_ns) / n / 1e3;
  out.add("core.conns_per_site", ratio(shape.connections, n), "count");
  out.add("core.allocs_per_site", median(replay_allocs) / n, "count");
  // What the scan's wall time per site spends outside the probes and the
  // wiretap fold: scheduling, SiteTask, coroutine and report plumbing.
  const double fold_us_per_site = median(fold_ns) / n / 1e3;
  out.add("corpus.driver_us_per_site",
          wall_us_per_site - probe_us_per_site - fold_us_per_site, "us");
  out.add("trace.fold_us_per_site", fold_us_per_site, "us");
  out.add("trace.records_per_op", ratio(shape.records, n), "count");
  out.add("trace.drops", static_cast<double>(ring.drops()), "count");
  out.add("h2.frames_per_op", ratio(shape.frames, n), "count");
  out.add("hpack.blocks_per_op", ratio(shape.blocks, n), "count");

  const double exchanges =
      faulted ? static_cast<double>(last.fault_exchanges)
              : static_cast<double>(shape.exchanges);
  out.add("net.exchanges_per_site", ratio(exchanges, n), "count");
  out.add("net.retries_per_site",
          ratio(static_cast<double>(last.fault_retries), n), "count");
  out.add("net.fault_injected_frac",
          ratio(static_cast<double>(last.fault_injected), exchanges), "ratio");
  out.add("net.useful_exchange_frac", ratio(n, exchanges), "ratio");

  // h2/hpack replays over each of the first sites' HPACK-probe exchange.
  std::vector<Capture> caps;
  std::vector<Analysis> ans;
  std::vector<hpack::IndexingPolicy> policies;
  for (const corpus::SiteSpec& spec : pop.sites) {
    if (caps.size() >= kCaptureSites) break;
    if (!spec.responds) continue;
    const server::ServerProfile profile = spec.to_profile();
    const core::Target target = spec.to_target();
    const Endpoints ends{
        std::make_shared<const server::ServerProfile>(profile),
        std::make_shared<const server::Site>(target.site)};
    Capture cap = capture_connection(ends, kHpackRequests, 1);
    if (cap.pieces.empty()) continue;
    Analysis an = analyze(cap);
    if (!an.error.empty()) continue;
    caps.push_back(std::move(cap));
    ans.push_back(std::move(an));
    policies.push_back(profile.response_indexing);
  }
  std::vector<const Capture*> cap_ptrs;
  std::vector<const Analysis*> an_ptrs;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    cap_ptrs.push_back(&caps[i]);
    an_ptrs.push_back(&ans[i]);
  }
  constexpr int kStageReps = 7;
  out.add("h2.parse_ns_per_frame", replay_parse(cap_ptrs, kStageReps).ns_per_unit,
          "ns");
  out.add("h2.serialize_ns_per_frame",
          replay_serialize(an_ptrs, kStageReps).ns_per_unit, "ns");
  out.add("hpack.decode_ns_per_block",
          replay_decode(an_ptrs, kStageReps).ns_per_unit, "ns");
  out.add("hpack.encode_ns_per_block",
          replay_encode(an_ptrs, policies, kStageReps).ns_per_unit, "ns");
  out.add("trace.record_ns_per_record",
          faulted ? replay_record(an_ptrs, kStageReps).ns_per_unit : 0, "ns");
  return out;
}

}  // namespace perfbench
