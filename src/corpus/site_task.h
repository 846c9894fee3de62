// One scan site: the Section III probe sequence run to completion, plus
// everything the site owns while it runs — its Target, fault ledger and
// wiretap ring — and the fold of what it observed into the worker's
// ScanReport: the sequence detector, the metrics and the JSONL export all
// read the ring after the site.
//
// Each scan worker calls scan_site() once per site it pulls. Every probe is
// a plain blocking function; a faulted transport's stalls are skipped
// inline by Transport::run and booked, like retry backoffs, on the site's
// net::ExchangeLedger, so the park metrics are per-site facts independent
// of the thread count.
#pragma once

#include "core/probes.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "trace/annotate.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace h2r::corpus {

/// Reusable per-worker scratch: one probe target, one wiretap buffer and
/// one client/engine pair serve every site a worker scans, rewound between
/// sites instead of reallocated. `target` is rewritten for each site
/// (SiteSpec::fill_target), so its host, profile and content keep their
/// storage. `endpoints` backs every probe connection (each lease rewinds
/// it and its transport for the next connection). The recorder is an
/// unbounded binary ring (32 bytes per event, no per-event heap traffic),
/// the site's only trace sink. The metrics fold runs straight off its raw
/// records (trace::fold_ring), and the JSONL export
/// (trace::append_annotated_jsonl) is written from the per-record tags of
/// that same walk, decoding one reused row at a time. The results of the
/// probes that carry lists or text (WINDOW_UPDATE reactions, push, HPACK
/// ratio) are rewritten in place, site after site, so their storage stays
/// warm too.
struct SiteScratch {
  trace::RingRecorder recorder;
  trace::TagCounts tag_counts;
  trace::RecordTags record_tags;
  // Shared metrics fold. Each site rebind()s the folder onto its family
  // registry and folds straight into it — no per-site scratch registry to
  // re-zero, no per-site merge — while the folder's per-connection scratch
  // vectors keep their capacity across the hundreds of sites one worker
  // scans. site_metrics is only the folder's initial (never-folded-into)
  // binding; the pointers never dangle: a SiteScratch lives on a worker's
  // stack and is never copied or moved, and family registries are std::map
  // values with stable addresses.
  trace::MetricsRegistry site_metrics;
  trace::MetricsRecorder folder{site_metrics};
  core::Target target;
  core::EndpointSlot endpoints;
  core::WindowUpdateProbeResult window_update;
  core::PushProbeResult push;
  core::HpackProbeResult hpack;

  void reset() {
    recorder.clear();
    tag_counts.clear();
  }
};

/// Probes @p spec with the options in @p opts and folds everything the site
/// observed into @p report. @p scratch is reset here and reused across the
/// sites of one worker.
void scan_site(const SiteSpec& spec, const ScanOptions& opts,
               ScanReport& report, SiteScratch& scratch);

}  // namespace h2r::corpus
