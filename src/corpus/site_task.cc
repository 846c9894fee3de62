#include "corpus/site_task.h"

#include <cstdint>
#include <optional>
#include <string_view>

#include "net/transport.h"
#include "trace/annotate.h"
#include "trace/detector.h"
#include "trace/event.h"
#include "util/rng.h"

namespace h2r::corpus {
namespace {

using core::SmallWindowOutcome;
using core::Target;
using core::UpdateReaction;

/// FNV-1a 64. Hashing the host (instead of the scan index) makes a site's
/// fault stream a pure function of (fault_seed, host) — independent of
/// H2R_THREADS, scan order, the scan driver, and the subsample scale.
std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Families whose HPACK ratio CDFs the paper plots (Figures 4 and 5).
bool hpack_family_of_interest(const std::string& family) {
  return family == "gse" || family == "nginx" || family == "tengine" ||
         family == "litespeed" || family == "ideawebserver" ||
         family == "tengine-aserver";
}

/// The probe sequence: the negotiation gate, then every enabled probe, each
/// folded into @p r as it returns. Dead and non-h2 sites stop early.
void run_probes(const SiteSpec& spec, const ScanOptions& opts,
                const Target& target, SiteScratch& scratch, ScanReport& r) {
  const auto negotiation = core::probe_negotiation(target);
  if (negotiation.npn_h2) ++r.npn_sites;
  if (negotiation.alpn_h2) ++r.alpn_sites;
  if (!negotiation.h2_established) return;

  // Faulted probes are re-run on fresh connections (bounded by
  // opts.retry); with no ledger the wrapper collapses to one plain call,
  // so the lockstep path is untouched.
  auto retried = [&](auto probe) {
    return core::probe_with_retry(target, opts.retry, probe);
  };

  const auto settings = retried([&] { return core::probe_settings(target); });
  if (!settings.headers_received) return;
  ++r.responding_sites;
  ++r.server_counts[settings.server_header];

  if (opts.probe_settings) {
    if (settings.settings_entry_count == 0) {
      r.initial_window_size.add(kNullValue);
      r.max_frame_size.add(kNullValue);
      r.max_header_list_size.add(kNullValue);
      r.max_concurrent_streams.add(kNullValue);
    } else {
      r.initial_window_size.add(
          settings.initial_window_size
              ? static_cast<std::int64_t>(*settings.initial_window_size)
              : kUnlimitedValue);
      r.max_frame_size.add(
          settings.max_frame_size
              ? static_cast<std::int64_t>(*settings.max_frame_size)
              : kUnlimitedValue);
      r.max_header_list_size.add(
          settings.max_header_list_size
              ? static_cast<std::int64_t>(*settings.max_header_list_size)
              : kUnlimitedValue);
      r.max_concurrent_streams.add(
          settings.max_concurrent_streams
              ? static_cast<std::int64_t>(*settings.max_concurrent_streams)
              : kUnlimitedValue);
    }
  }

  if (opts.probe_flow_control) {
    const auto sframe =
        retried([&] { return core::probe_data_frame_control(target); });
    switch (sframe.outcome) {
      case SmallWindowOutcome::kRespectsWindow:
        ++r.sframe_respecting;
        break;
      case SmallWindowOutcome::kZeroLengthData:
        ++r.sframe_zero_length;
        break;
      case SmallWindowOutcome::kNoResponse:
        ++r.sframe_no_response;
        if (spec.family == "litespeed") ++r.sframe_no_response_litespeed;
        break;
      case SmallWindowOutcome::kOversized:
        break;
    }
    const auto zero_window =
        retried([&] { return core::probe_zero_window_headers(target); });
    if (zero_window.headers_received) {
      ++r.zero_window_headers_ok;
    }
    const core::WindowUpdateProbeResult& wu = scratch.window_update;
    retried([&] {
      core::probe_window_update_reactions(target, scratch.window_update);
    });
    switch (wu.zero_on_stream) {
      case UpdateReaction::kRstStream:
        ++r.zero_wu_rst;
        break;
      case UpdateReaction::kIgnored:
        ++r.zero_wu_ignore;
        break;
      case UpdateReaction::kGoaway:
        ++r.zero_wu_goaway;
        break;
      case UpdateReaction::kGoawayWithDebug:
        ++r.zero_wu_goaway_debug;
        break;
    }
    if (wu.zero_on_connection != UpdateReaction::kIgnored) {
      ++r.zero_wu_conn_error;
    }
    if (wu.large_on_connection == UpdateReaction::kGoaway) {
      ++r.large_wu_conn_goaway;
    }
    if (wu.large_on_stream == UpdateReaction::kRstStream) {
      ++r.large_wu_stream_rst;
    } else {
      ++r.large_wu_stream_ignore;
    }
  }

  if (opts.probe_priority) {
    const auto prio =
        retried([&] { return core::probe_priority_mechanism(target); });
    if (prio.ran) {
      if (prio.pass_by_last_data) ++r.priority_pass_last;
      if (prio.pass_by_first_data) ++r.priority_pass_first;
      if (prio.pass_by_both) ++r.priority_pass_both;
    }
    const auto self_dep =
        retried([&] { return core::probe_self_dependency(target); });
    switch (self_dep.reaction) {
      case UpdateReaction::kRstStream:
        ++r.self_dep_rst;
        break;
      case UpdateReaction::kGoaway:
      case UpdateReaction::kGoawayWithDebug:
        ++r.self_dep_goaway;
        break;
      case UpdateReaction::kIgnored:
        ++r.self_dep_ignore;
        break;
    }
  }

  if (opts.probe_push) {
    core::PushProbeResult& push = scratch.push;
    retried([&] { core::probe_server_push(target, "/", push); });
    if (push.push_received) {
      r.push_hosts.push_back(spec.host);
    }
  }

  if (opts.probe_hpack && hpack_family_of_interest(spec.family)) {
    core::HpackProbeResult& hpack = scratch.hpack;
    retried([&] { core::probe_hpack_ratio(target, opts.hpack_h, "/", hpack); });
    if (hpack.ran) {
      if (hpack.ratio > 1.0) {
        ++r.hpack_filtered_out;  // the paper drops r > 1 (§V-G)
      } else {
        r.hpack_ratio_by_family[spec.family].push_back(hpack.ratio);
      }
    }
  }
}

/// Outcome class, ledger totals, park record and wiretap folds of one
/// finished site.
void fold_site(const SiteSpec& spec, const ScanOptions& opts,
               const net::ExchangeLedger& ledger,
               std::optional<trace::SequenceDetector>& detector,
               SiteScratch& scratch, ScanReport& r) {
  const bool wiretap = opts.wiretap_metrics || opts.wiretap_traces;
  // TraceEvents are materialized only when something actually needs them
  // (JSONL export, sequence detector); the default metrics fold runs
  // straight off the ring's raw WireRecords.
  const bool materialize =
      wiretap && (opts.wiretap_traces || detector.has_value());
  if (materialize) scratch.recorder.decode_into(scratch.decoded);
  if (detector) {
    if (materialize) detector->observe_all(scratch.decoded);
    detector->finish();
    r.attack_detections.merge(detector->report());
  }

  // Exactly one outcome class per site (precedence: a deadline outranks a
  // disconnect outranks a truncation; anything clean that needed retries
  // is retried_ok). A lockstep scan books every site as sites_ok.
  if (ledger.final_deadline) {
    ++r.sites_timed_out;
  } else if (ledger.final_disconnect) {
    ++r.sites_disconnected;
  } else if (ledger.final_truncated) {
    ++r.sites_truncated;
  } else if (ledger.retries > 0) {
    ++r.sites_retried_ok;
  } else {
    ++r.sites_ok;
  }
  r.fault_exchanges += ledger.exchanges;
  r.fault_injected += ledger.faults_injected;
  r.fault_retries += ledger.retries;
  r.fault_deadline_hits += ledger.deadline_hits;
  r.fault_backoff_ms += ledger.backoff_ms;

  // Park record: stall stretches and retry backoffs, booked on the site's
  // ledger, so they fold identically for any thread count. Only booked on
  // faulted scans so clean-scan metric snapshots stay byte-identical to the
  // historical ones.
  if (opts.fault_injection) {
    r.wire_metrics.reactor_parks += ledger.parks;
    r.wire_metrics.reactor_parked_rounds += ledger.parked_rounds;
    r.wire_metrics.park_duration_rounds.merge(ledger.park_durations);
    r.wire_metrics.wakeups_per_site.add(ledger.parks);
  }

  if (wiretap) {
    // Everything folds into the site's per-family registry only; the scan
    // driver sums the family registries into the global snapshot once at
    // the end (MetricsRegistry merges are field-wise sums, so the result
    // is identical to merging per site, minus one merge per site here).
    trace::MetricsRegistry& family = r.wire_metrics_by_family[spec.family];
    if (materialize) {
      std::vector<trace::TraceEvent>& events = scratch.decoded;
      trace::annotate_violations(events);
      trace::consume(family, events);
      if (opts.wiretap_traces) {
        r.site_traces[spec.host] = trace::to_jsonl(events, spec.host);
      }
    } else {
      // The hot path: one walk over the 32-byte records annotates and — via
      // the fold tee — aggregates the metrics straight into the family
      // registry, with violations landing as interned tag counts instead
      // of per-event tag strings. Identical registry contents to the
      // materialized branch (asserted by the scan tests): the annotator is
      // the same template body, the fold sees records in trace order with
      // their exact ring sequences, and tag counting is order-independent.
      scratch.tag_counts.clear();
      scratch.folder.rebind(family);
      trace::annotate_ring(scratch.recorder, scratch.tag_counts,
                           &scratch.folder);
      scratch.folder.finish();
      for (const auto& [name, n] : scratch.tag_counts) {
        family.add_violation(name, n);
      }
    }
  }
}

}  // namespace

void scan_site(const SiteSpec& spec, const ScanOptions& opts,
               ScanReport& report, SiteScratch& scratch) {
  scratch.reset();
  Target& target = scratch.target;
  spec.fill_target(target);
  target.endpoints = &scratch.endpoints;

  // One ledger per site: every connection any probe opens against this
  // target folds its outcome here, and the final-attempt flags classify
  // the site in fold_site().
  net::ExchangeLedger ledger;
  if (opts.fault_injection) {
    std::uint64_t mix = opts.fault_seed ^ fnv1a64(spec.host);
    target.faults.enabled = true;
    target.faults.seed = splitmix64(mix);
    target.faults.probability =
        net::fault_probability(target.path.loss_rate, opts.fault_floor);
    target.ledger = &ledger;
  }

  // The probe sequence bails out early on dead or non-h2 sites, so the
  // wiretap wraps it: record, run, then always annotate + fold.
  const bool wiretap = opts.wiretap_metrics || opts.wiretap_traces;
  if (wiretap) target.recorder = &scratch.recorder;

  // Sequence detection: live when it can be the sink itself, replayed
  // from the retained trace when the wiretap already owns the sink. The
  // two paths produce identical reports (tests/detector_test.cc pins
  // replay == live).
  std::optional<trace::SequenceDetector> detector;
  if (opts.detect_attacks) {
    detector.emplace(opts.detector_thresholds);
    if (!wiretap) target.recorder = &*detector;
  }

  run_probes(spec, opts, target, scratch, report);
  fold_site(spec, opts, ledger, detector, scratch, report);
}

}  // namespace h2r::corpus
