// One in-flight scan site: the Section III probe sequence as a resumable
// coroutine (core::Task), plus everything the site owns while in flight —
// its Target, fault ledger, wiretap buffer, and sequence detector.
//
// Both scan drivers run SiteTasks. The sequential worker drives one task to
// completion (advance() in a loop, servicing each park immediately); the
// shard reactor (corpus/reactor.h) keeps many in flight and sleeps parked
// ones on its timer wheel. The probe work, trace events, ledger accounting,
// and report folds are identical either way — only the interleaving
// differs, and every ScanReport aggregate is interleaving-independent
// (asserted by tests/scan_reactor_test.cc).
#pragma once

#include <cstdint>
#include <optional>

#include "core/probes.h"
#include "core/session.h"
#include "core/task.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "net/transport.h"
#include "trace/annotate.h"
#include "trace/detector.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::corpus {

/// Reusable per-slot scratch: one wiretap buffer and two client/engine
/// pairs serve every site a sequential worker (or reactor slot) scans,
/// rewound between sites instead of reallocated. `endpoints` backs every
/// fresh-connection probe (each lease rewinds it for the next connection);
/// `session` backs the coalesced ProbeSession, whose shared connection
/// stays leased while fresh probes run beside it. The recorder is an unbounded
/// binary ring (32 bytes per event, no per-event heap traffic). The default
/// metrics fold runs straight off the raw records (annotate_ring with a
/// MetricsRecorder tee), so `decoded` — the offline-expansion scratch — is
/// only touched when the site's TraceEvents are actually needed (JSONL
/// export, sequence detector).
struct SiteScratch {
  trace::RingRecorder recorder;
  std::vector<trace::TraceEvent> decoded;
  trace::TagCounts tag_counts;
  // Shared metrics fold. Each site rebind()s the folder onto its family
  // registry and folds straight into it — no per-site scratch registry to
  // re-zero, no per-site merge — while the folder's per-connection scratch
  // vectors keep their capacity across the hundreds of sites one slot
  // serves. site_metrics is only the folder's initial (never-folded-into)
  // binding; the pointers never
  // dangle: a SiteScratch lives on a worker's stack or behind a unique_ptr
  // (reactor slots) and is never copied or moved, and family registries are
  // std::map values with stable addresses.
  trace::MetricsRegistry site_metrics;
  trace::MetricsRecorder folder{site_metrics};
  core::EndpointSlot session;
  core::EndpointSlot endpoints;

  void reset() {
    recorder.clear();
    tag_counts.clear();
  }
};

class SiteTask {
 public:
  /// Wires the site up (fault stream, wiretap, detector) but runs nothing:
  /// the first advance() starts the probe sequence. @p scratch is borrowed
  /// for this site's lifetime and reset here.
  SiteTask(const SiteSpec& spec, const ScanOptions& opts, ScanReport& report,
           SiteScratch& scratch);
  SiteTask(const SiteTask&) = delete;
  SiteTask& operator=(const SiteTask&) = delete;

  /// Starts or resumes the probe sequence, servicing at most one park per
  /// call. Returns true once the site finished and folded into the report;
  /// false means the task parked — park_rounds() says for how long.
  bool advance();
  /// Virtual rounds until this task wants to run again; valid after an
  /// advance() that returned false.
  [[nodiscard]] int park_rounds() const;

 private:
  core::Task<void> run();   ///< the probe sequence (negotiation gate + probes)
  void book_wake(int parked);
  void finish();            ///< outcome class + ledger + wiretap folds

  const SiteSpec& spec_;
  const ScanOptions& opts_;
  ScanReport& r_;
  SiteScratch& scratch_;
  core::Target target_;
  net::ExchangeLedger ledger_;
  std::optional<trace::SequenceDetector> detector_;
  core::TaskContext ctx_;
  bool started_ = false;
  bool finished_ = false;
  // Park observability, booked identically by both drivers (one wake per
  // park serviced) and folded into ScanReport::wire_metrics at completion.
  std::uint64_t wakeups_ = 0;
  std::uint64_t parked_rounds_ = 0;
  trace::Histogram park_hist_;
  core::Task<void> task_;   ///< last: frames reference the members above
};

}  // namespace h2r::corpus
