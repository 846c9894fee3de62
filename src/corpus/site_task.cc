#include "corpus/site_task.h"

#include <string_view>

#include "trace/annotate.h"
#include "trace/event.h"
#include "util/rng.h"

namespace h2r::corpus {
namespace {

using core::ProbeKind;
using core::SmallWindowOutcome;
using core::Target;
using core::UpdateReaction;

// The coalesced scheduler below substitutes ProbeSession for exactly the
// probes the trait marks shareable; everything else stays on fresh
// connections. Keep the two in sync.
static_assert(!core::needs_fresh_connection(ProbeKind::kSettings));
static_assert(!core::needs_fresh_connection(ProbeKind::kPriority));
static_assert(!core::needs_fresh_connection(ProbeKind::kSelfDependency));
static_assert(!core::needs_fresh_connection(ProbeKind::kPush));
static_assert(!core::needs_fresh_connection(ProbeKind::kHpackRatio));
static_assert(core::needs_fresh_connection(ProbeKind::kNegotiation));
static_assert(core::needs_fresh_connection(ProbeKind::kDataFrameControl));
static_assert(core::needs_fresh_connection(ProbeKind::kZeroWindowHeaders));
static_assert(core::needs_fresh_connection(ProbeKind::kWindowUpdateReactions));

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

}  // namespace

SiteTask::SiteTask(const SiteSpec& spec, const ScanOptions& opts,
                   ScanReport& report, SiteScratch& scratch)
    : spec_(spec), opts_(opts), r_(report), scratch_(scratch),
      target_(spec.to_target()), task_(run()) {
  scratch_.reset();
  target_.endpoints = &scratch_.endpoints;

  // One ledger per site: every connection any probe opens against this
  // target folds its outcome here, and the final-attempt flags classify
  // the site in finish().
  if (opts_.fault_injection) {
    std::uint64_t mix = opts_.fault_seed ^ fnv1a64(spec_.host);
    target_.faults.enabled = true;
    target_.faults.seed = splitmix64(mix);
    target_.faults.probability =
        net::fault_probability(target_.path.loss_rate, opts_.fault_floor);
    target_.ledger = &ledger_;
  }

  // The probe sequence bails out early on dead or non-h2 sites, so the
  // wiretap wraps it: record, run, then always annotate + fold.
  const bool wiretap = opts_.wiretap_metrics || opts_.wiretap_traces;
  if (wiretap) target_.recorder = &scratch_.recorder;

  // Sequence detection: live when it can be the sink itself, replayed
  // from the retained trace when the wiretap already owns the sink. The
  // two paths produce identical reports (tests/detector_test.cc pins
  // replay == live).
  if (opts_.detect_attacks) {
    detector_.emplace(opts_.detector_thresholds);
    if (!wiretap) target_.recorder = &*detector_;
  }
}

bool SiteTask::advance() {
  if (!started_) {
    started_ = true;
    task_.start(ctx_);
  } else if (net::ExchangeDriver* d = ctx_.waiting) {
    // A parked exchange: book the slept stretch, skip it, pump on. If the
    // exchange parks again the coroutine stays suspended at the same
    // co_await — only a finished exchange resumes it.
    book_wake(d->park_rounds());
    d->unpark();
    if (d->pump() == net::ExchangeDriver::State::kParked) return false;
    ctx_.waiting = nullptr;
    ctx_.resume_point.resume();
  } else {
    // A pure timer park (retry backoff).
    book_wake(ctx_.park_rounds);
    ctx_.resume_point.resume();
  }
  if (!task_.done()) return false;
  finish();
  return true;
}

int SiteTask::park_rounds() const {
  return ctx_.waiting != nullptr ? ctx_.waiting->park_rounds()
                                 : ctx_.park_rounds;
}

void SiteTask::book_wake(int parked) {
  ++wakeups_;
  parked_rounds_ += static_cast<std::uint64_t>(parked);
  park_hist_.add(static_cast<std::uint64_t>(parked));
}

void SiteTask::finish() {
  if (finished_) return;
  finished_ = true;

  const bool wiretap = opts_.wiretap_metrics || opts_.wiretap_traces;
  // TraceEvents are materialized only when something actually needs them
  // (JSONL export, sequence detector); the default metrics fold runs
  // straight off the ring's raw WireRecords.
  const bool materialize =
      wiretap && (opts_.wiretap_traces || detector_.has_value());
  if (materialize) scratch_.recorder.decode_into(scratch_.decoded);
  if (detector_) {
    if (materialize) detector_->observe_all(scratch_.decoded);
    detector_->finish();
    r_.attack_detections.merge(detector_->report());
  }

  // Exactly one outcome class per site (precedence: a deadline outranks a
  // disconnect outranks a truncation; anything clean that needed retries
  // is retried_ok). A lockstep scan books every site as sites_ok.
  if (ledger_.final_deadline) {
    ++r_.sites_timed_out;
  } else if (ledger_.final_disconnect) {
    ++r_.sites_disconnected;
  } else if (ledger_.final_truncated) {
    ++r_.sites_truncated;
  } else if (ledger_.retries > 0) {
    ++r_.sites_retried_ok;
  } else {
    ++r_.sites_ok;
  }
  r_.fault_exchanges += ledger_.exchanges;
  r_.fault_injected += ledger_.faults_injected;
  r_.fault_retries += ledger_.retries;
  r_.fault_deadline_hits += ledger_.deadline_hits;
  r_.fault_backoff_ms += ledger_.backoff_ms;

  // Reactor observability. Parks are a property of the site's exchanges,
  // not of the scheduler, so these fold identically for both drivers and
  // any thread count. Only booked on faulted scans so clean-scan metric
  // snapshots stay byte-identical to the historical ones.
  if (opts_.fault_injection) {
    r_.wire_metrics.reactor_parks += wakeups_;
    r_.wire_metrics.reactor_parked_rounds += parked_rounds_;
    r_.wire_metrics.park_duration_rounds.merge(park_hist_);
    r_.wire_metrics.wakeups_per_site.add(wakeups_);
  }

  if (wiretap) {
    // Everything folds into the site's per-family registry only; the scan
    // driver sums the family registries into the global snapshot once at
    // the end (MetricsRegistry merges are field-wise sums, so the result
    // is identical to merging per site, minus one merge per site here).
    trace::MetricsRegistry& family = r_.wire_metrics_by_family[spec_.family];
    if (materialize) {
      std::vector<trace::TraceEvent>& events = scratch_.decoded;
      trace::annotate_violations(events);
      trace::consume(family, events);
      if (opts_.wiretap_traces) {
        r_.site_traces[spec_.host] = trace::to_jsonl(events, spec_.host);
      }
    } else {
      // The hot path: one walk over the 32-byte records annotates and — via
      // the fold tee — aggregates the metrics straight into the family
      // registry, with violations landing as interned tag counts instead
      // of per-event tag strings. Identical registry contents to the
      // materialized branch (asserted by the scan tests): the annotator is
      // the same template body, the fold sees records in trace order with
      // their exact ring sequences, and tag counting is order-independent.
      scratch_.tag_counts.clear();
      scratch_.folder.rebind(family);
      trace::annotate_ring(scratch_.recorder, scratch_.tag_counts,
                           &scratch_.folder);
      scratch_.folder.finish();
      for (const auto& [name, n] : scratch_.tag_counts) {
        family.add_violation(name, n);
      }
    }
  }
}

core::Task<void> SiteTask::run() {
  const auto negotiation = core::probe_negotiation(target_);
  if (negotiation.npn_h2) ++r_.npn_sites;
  if (negotiation.alpn_h2) ++r_.alpn_sites;
  if (!negotiation.h2_established) co_return;

  // Faulted probes are re-run on fresh connections (bounded by
  // opts_.retry); with no ledger the wrapper collapses to one plain call,
  // so the lockstep path is untouched. The backoff between attempts parks
  // the whole site task.
  const Target& target = target_;
  auto retried = [&](auto make_task) {
    return core::probe_with_retry_task(target, opts_.retry, make_task);
  };

  // Coalesced scheduling: the shareable probes run as streams of one
  // connection (core::ProbeSession). Fault injection keeps the
  // per-fresh-connection path — its retry semantics are per connection —
  // as does the wiretap, whose frame record legitimately depends on the
  // connection layout. Report-identity between the two paths is asserted
  // by tests/scan_coalesce_test.cc. ProbeSession itself stays synchronous:
  // it only ever runs over the always-ready lockstep transport.
  std::optional<core::ProbeSession> session;
  if (opts_.coalesce && !target.faults.enabled && target.recorder == nullptr) {
    const core::ProbeSession::Options session_opts{
        .hpack_h = opts_.hpack_h,
        .expect_hpack =
            opts_.probe_hpack && hpack_family_of_interest(spec_.family)};
    session.emplace(target, session_opts, &scratch_.session);
  }

  core::SettingsProbeResult settings;
  if (session) {
    settings = session->settings();
  } else {
    settings =
        co_await retried([&] { return core::probe_settings_task(target); });
  }
  if (!settings.headers_received) co_return;
  ++r_.responding_sites;
  ++r_.server_counts[settings.server_header];

  if (opts_.probe_settings) {
    if (settings.settings_entry_count == 0) {
      r_.initial_window_size.add(kNullValue);
      r_.max_frame_size.add(kNullValue);
      r_.max_header_list_size.add(kNullValue);
      r_.max_concurrent_streams.add(kNullValue);
    } else {
      r_.initial_window_size.add(
          settings.initial_window_size
              ? static_cast<std::int64_t>(*settings.initial_window_size)
              : kUnlimitedValue);
      r_.max_frame_size.add(
          settings.max_frame_size
              ? static_cast<std::int64_t>(*settings.max_frame_size)
              : kUnlimitedValue);
      r_.max_header_list_size.add(
          settings.max_header_list_size
              ? static_cast<std::int64_t>(*settings.max_header_list_size)
              : kUnlimitedValue);
      r_.max_concurrent_streams.add(
          settings.max_concurrent_streams
              ? static_cast<std::int64_t>(*settings.max_concurrent_streams)
              : kUnlimitedValue);
    }
  }

  if (opts_.probe_flow_control) {
    const auto sframe = co_await retried(
        [&] { return core::probe_data_frame_control_task(target); });
    switch (sframe.outcome) {
      case SmallWindowOutcome::kRespectsWindow:
        ++r_.sframe_respecting;
        break;
      case SmallWindowOutcome::kZeroLengthData:
        ++r_.sframe_zero_length;
        break;
      case SmallWindowOutcome::kNoResponse:
        ++r_.sframe_no_response;
        if (spec_.family == "litespeed") ++r_.sframe_no_response_litespeed;
        break;
      case SmallWindowOutcome::kOversized:
        break;
    }
    const auto zero_window = co_await retried(
        [&] { return core::probe_zero_window_headers_task(target); });
    if (zero_window.headers_received) {
      ++r_.zero_window_headers_ok;
    }
    const auto wu = co_await retried(
        [&] { return core::probe_window_update_reactions_task(target); });
    switch (wu.zero_on_stream) {
      case UpdateReaction::kRstStream:
        ++r_.zero_wu_rst;
        break;
      case UpdateReaction::kIgnored:
        ++r_.zero_wu_ignore;
        break;
      case UpdateReaction::kGoaway:
        ++r_.zero_wu_goaway;
        break;
      case UpdateReaction::kGoawayWithDebug:
        ++r_.zero_wu_goaway_debug;
        break;
    }
    if (wu.zero_on_connection != UpdateReaction::kIgnored) {
      ++r_.zero_wu_conn_error;
    }
    if (wu.large_on_connection == UpdateReaction::kGoaway) {
      ++r_.large_wu_conn_goaway;
    }
    if (wu.large_on_stream == UpdateReaction::kRstStream) {
      ++r_.large_wu_stream_rst;
    } else {
      ++r_.large_wu_stream_ignore;
    }
  }

  if (opts_.probe_priority) {
    core::PriorityProbeResult prio;
    if (session) {
      prio = session->priority();
    } else {
      prio = co_await retried(
          [&] { return core::probe_priority_mechanism_task(target); });
    }
    if (prio.ran) {
      if (prio.pass_by_last_data) ++r_.priority_pass_last;
      if (prio.pass_by_first_data) ++r_.priority_pass_first;
      if (prio.pass_by_both) ++r_.priority_pass_both;
    }
    core::SelfDependencyProbeResult self_dep;
    if (session) {
      self_dep = session->self_dependency();
    } else {
      self_dep = co_await retried(
          [&] { return core::probe_self_dependency_task(target); });
    }
    switch (self_dep.reaction) {
      case UpdateReaction::kRstStream:
        ++r_.self_dep_rst;
        break;
      case UpdateReaction::kGoaway:
      case UpdateReaction::kGoawayWithDebug:
        ++r_.self_dep_goaway;
        break;
      case UpdateReaction::kIgnored:
        ++r_.self_dep_ignore;
        break;
    }
  }

  if (opts_.probe_push) {
    core::PushProbeResult push;
    if (session) {
      push = session->push();
    } else {
      push = co_await retried(
          [&] { return core::probe_server_push_task(target); });
    }
    if (push.push_received) {
      r_.push_hosts.push_back(spec_.host);
    }
  }

  if (opts_.probe_hpack && hpack_family_of_interest(spec_.family)) {
    core::HpackProbeResult hpack;
    if (session) {
      hpack = session->hpack_ratio();
    } else {
      hpack = co_await retried(
          [&] { return core::probe_hpack_ratio_task(target, opts_.hpack_h); });
    }
    if (hpack.ran) {
      if (hpack.ratio > 1.0) {
        ++r_.hpack_filtered_out;  // the paper drops r > 1 (§V-G)
      } else {
        r_.hpack_ratio_by_family[spec_.family].push_back(hpack.ratio);
      }
    }
  }
}

}  // namespace h2r::corpus
