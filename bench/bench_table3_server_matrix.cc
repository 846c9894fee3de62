// Reproduces Table III: the feature matrix of the six testbed servers,
// probed entirely from the wire, plus the §V-A MAX_CONCURRENT_STREAMS=0/1
// experiment.
//
// H2R_TRACE_OUT=<path>: run every probe under the H2Wiretap, dump the six
// servers' annotated frame traces (concatenated JSONL, `site` = profile
// key) to <path> and the merged metrics snapshot to <path>.metrics.json.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/report.h"
#include "trace/annotate.h"
#include "trace/recorder.h"

int main() {
  using namespace h2r;
  bench::print_banner(
      "Table III - Characterizing popular HTTP/2 web servers in testbed");

  const std::string trace_out = bench::trace_out_from_env();

  Rng rng(7);
  std::vector<core::Characterization> columns;
  std::string jsonl;
  trace::MetricsRegistry merged;
  for (const auto& profile : server::testbed_profiles()) {
    if (trace_out.empty()) {
      columns.push_back(
          core::characterize(core::Target::testbed(profile), rng));
    } else {
      trace::RingRecorder recorder;
      columns.push_back(core::characterize_traced(core::Target::testbed(profile),
                                                  rng, recorder));
      trace::append_annotated_jsonl(jsonl, recorder,
                                    columns.back().record_tags, profile.key);
      merged.merge(columns.back().wire_metrics);
    }
  }
  if (!trace_out.empty()) {
    bench::write_file_or_warn(trace_out, jsonl);
    bench::write_file_or_warn(trace_out + ".metrics.json",
                              merged.to_json() + "\n");
    std::printf("\n--- H2Wiretap violation tags per server ---\n");
    for (const auto& c : columns) {
      std::printf("%-10s", c.server_key.c_str());
      if (c.violation_tags.empty()) std::printf(" (none)");
      for (const auto& tag : c.violation_tags) std::printf(" %s", tag.c_str());
      std::printf("\n");
    }
  }

  std::vector<std::string> header = {"Feature"};
  for (const auto& c : columns) header.push_back(c.server_key);
  header.push_back("RFC 7540");
  TextTable table(header);

  const auto& labels = core::Characterization::row_labels();
  const auto rfc = core::rfc7540_reference_column();
  std::vector<std::vector<std::string>> cells;
  for (const auto& c : columns) cells.push_back(c.row_values());
  for (std::size_t row = 0; row < labels.size(); ++row) {
    std::vector<std::string> line = {labels[row]};
    for (const auto& values : cells) line.push_back(values[row]);
    line.push_back(rfc[row]);
    table.add_row(std::move(line));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n--- SettingsProbe extras (Section V-A / V-C) ---\n");
  for (const auto& c : columns) {
    std::printf(
        "%-10s max_concurrent_streams=%s initial_window=%s%s hpack r=%.3f\n",
        c.server_key.c_str(),
        c.settings.max_concurrent_streams
            ? std::to_string(*c.settings.max_concurrent_streams).c_str()
            : "-",
        c.settings.initial_window_size
            ? std::to_string(*c.settings.initial_window_size).c_str()
            : "-",
        c.settings.preemptive_window_bonus > 0 ? " (+WINDOW_UPDATE)" : "",
        c.hpack.ratio);
  }

  std::printf(
      "\n--- SETTINGS_MAX_CONCURRENT_STREAMS = 0 / 1 (Section V-A) ---\n");
  for (const auto& c : columns) {
    std::printf("%-10s cap=0 -> %s; cap=1, 2nd request -> %s\n",
                c.server_key.c_str(),
                c.concurrency_limit.refused_when_zero ? "RST_STREAM" : "served",
                c.concurrency_limit.refused_second_when_one ? "RST_STREAM"
                                                            : "served");
  }
  return 0;
}
