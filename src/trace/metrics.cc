#include "trace/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "h2/constants.h"

namespace h2r::trace {
namespace {

using h2::FrameType;

/// Fixed display order for the per-type counters (wire order 0x0..0x9).
constexpr const char* kTypeNames[kFrameTypeSlots] = {
    "DATA",     "HEADERS", "PRIORITY", "RST_STREAM",    "SETTINGS",
    "PUSH_PROMISE", "PING",    "GOAWAY",   "WINDOW_UPDATE", "CONTINUATION",
    "UNKNOWN"};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_frames_object(
    std::string& out, const std::array<std::uint64_t, kFrameTypeSlots>& slots) {
  out += '{';
  for (std::size_t i = 0; i < kFrameTypeSlots; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += kTypeNames[i];
    out += "\":";
    append_u64(out, slots[i]);
  }
  out += '}';
}

void append_histogram(std::string& out, const char* name,
                      const Histogram& hist) {
  out += '"';
  out += name;
  out += "\":{\"count\":";
  append_u64(out, hist.count());
  out += ",\"sum\":";
  append_u64(out, hist.sum());
  char buf[32];
  std::snprintf(buf, sizeof buf, ",\"mean\":%.3f", hist.mean());
  out += buf;
  out += ",\"log2_buckets\":[";
  // Trailing zero buckets are trimmed; the geometry is fixed so trimmed
  // output still merges/compares deterministically.
  std::size_t last = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (hist.buckets()[i] != 0) last = i + 1;
  }
  for (std::size_t i = 0; i < last; ++i) {
    if (i > 0) out += ',';
    append_u64(out, hist.buckets()[i]);
  }
  out += "]}";
}

}  // namespace

void Histogram::add(std::uint64_t value, std::uint64_t times) {
  std::size_t b = value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  if (b >= kBuckets) b = kBuckets - 1;
  buckets_[b] += times;
  count_ += times;
  sum_ += value * times;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

std::size_t frame_type_slot(std::uint8_t type_octet) noexcept {
  return type_octet < 10 ? type_octet : kFrameTypeSlots - 1;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  connections += other.connections;
  rounds += other.rounds;
  for (std::size_t i = 0; i < kFrameTypeSlots; ++i) {
    frames_c2s[i] += other.frames_c2s[i];
    frames_s2c[i] += other.frames_s2c[i];
  }
  bytes_c2s += other.bytes_c2s;
  bytes_s2c += other.bytes_s2c;
  settings_applied += other.settings_applied;
  hpack_inserts += other.hpack_inserts;
  hpack_evictions += other.hpack_evictions;
  rst_streams += other.rst_streams;
  goaways += other.goaways;
  window_stalls += other.window_stalls;
  parse_errors += other.parse_errors;
  faults_injected += other.faults_injected;
  mitigation_events += other.mitigation_events;
  trace_drops += other.trace_drops;
  for (const auto& [tag, n] : other.violation_tags) violation_tags[tag] += n;
  reactor_parks += other.reactor_parks;
  reactor_parked_rounds += other.reactor_parked_rounds;
  // A gauge, not a counter: the fleet-wide peak is the max over shards.
  reactor_peak_in_flight =
      reactor_peak_in_flight > other.reactor_peak_in_flight
          ? reactor_peak_in_flight
          : other.reactor_peak_in_flight;
  frame_size.merge(other.frame_size);
  stream_wire_bytes.merge(other.stream_wire_bytes);
  stall_span_events.merge(other.stall_span_events);
  compression_ratio_pct.merge(other.compression_ratio_pct);
  park_duration_rounds.merge(other.park_duration_rounds);
  wakeups_per_site.merge(other.wakeups_per_site);
}

std::uint64_t MetricsRegistry::total_frames() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kFrameTypeSlots; ++i) {
    n += frames_c2s[i] + frames_s2c[i];
  }
  return n;
}

std::uint64_t MetricsRegistry::total_violations() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [tag, c] : violation_tags) n += c;
  return n;
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"connections\":";
  append_u64(out, connections);
  out += ",\"rounds\":";
  append_u64(out, rounds);
  out += ",\"frames\":{\"c2s\":";
  append_frames_object(out, frames_c2s);
  out += ",\"s2c\":";
  append_frames_object(out, frames_s2c);
  out += "},\"bytes\":{\"c2s\":";
  append_u64(out, bytes_c2s);
  out += ",\"s2c\":";
  append_u64(out, bytes_s2c);
  out += "},\"settings_applied\":";
  append_u64(out, settings_applied);
  out += ",\"hpack\":{\"inserts\":";
  append_u64(out, hpack_inserts);
  out += ",\"evictions\":";
  append_u64(out, hpack_evictions);
  out += "},\"rst_streams\":";
  append_u64(out, rst_streams);
  out += ",\"goaways\":";
  append_u64(out, goaways);
  out += ",\"window_stalls\":";
  append_u64(out, window_stalls);
  out += ",\"parse_errors\":";
  append_u64(out, parse_errors);
  // Emitted only when present so fault-free snapshots stay byte-identical
  // to pre-fault-injection output (same policy as the violations map).
  if (faults_injected != 0) {
    out += ",\"faults_injected\":";
    append_u64(out, faults_injected);
  }
  if (mitigation_events != 0) {
    out += ",\"mitigation_events\":";
    append_u64(out, mitigation_events);
  }
  if (trace_drops != 0) {
    out += ",\"trace_drops\":";
    append_u64(out, trace_drops);
  }
  // Park bookkeeping comes from the site ledgers, so it is identical for
  // every driver and thread count — safe to emit. The in-flight peak is
  // not (it depends on shard sizes), so it stays out of the JSON snapshot
  // entirely; to_text() reports it.
  if (reactor_parks != 0 || wakeups_per_site.count() != 0) {
    out += ",\"reactor\":{\"parks\":";
    append_u64(out, reactor_parks);
    out += ",\"parked_rounds\":";
    append_u64(out, reactor_parked_rounds);
    out += ',';
    append_histogram(out, "park_duration_rounds", park_duration_rounds);
    out += ',';
    append_histogram(out, "wakeups_per_site", wakeups_per_site);
    out += '}';
  }
  out += ",\"violations\":{";
  bool first = true;
  for (const auto& [tag, n] : violation_tags) {  // std::map: sorted, stable
    if (!first) out += ',';
    first = false;
    out += '"';
    out += tag;
    out += "\":";
    append_u64(out, n);
  }
  out += "},\"histograms\":{";
  append_histogram(out, "frame_size", frame_size);
  out += ',';
  append_histogram(out, "stream_wire_bytes", stream_wire_bytes);
  out += ',';
  append_histogram(out, "stall_span_events", stall_span_events);
  out += ',';
  append_histogram(out, "compression_ratio_pct", compression_ratio_pct);
  out += "}}";
  return out;
}

std::string MetricsRegistry::to_text() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "wiretap: %llu connections, %llu frames, %llu+%llu bytes "
                "(c2s+s2c)\n",
                static_cast<unsigned long long>(connections),
                static_cast<unsigned long long>(total_frames()),
                static_cast<unsigned long long>(bytes_c2s),
                static_cast<unsigned long long>(bytes_s2c));
  out += buf;
  out += "  frames by type (c2s / s2c):\n";
  for (std::size_t i = 0; i < kFrameTypeSlots; ++i) {
    if (frames_c2s[i] == 0 && frames_s2c[i] == 0) continue;
    std::snprintf(buf, sizeof buf, "    %-14s %10llu / %llu\n", kTypeNames[i],
                  static_cast<unsigned long long>(frames_c2s[i]),
                  static_cast<unsigned long long>(frames_s2c[i]));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  settings applied %llu, hpack +%llu/-%llu, rst %llu, "
                "goaway %llu, stalls %llu, parse errors %llu\n",
                static_cast<unsigned long long>(settings_applied),
                static_cast<unsigned long long>(hpack_inserts),
                static_cast<unsigned long long>(hpack_evictions),
                static_cast<unsigned long long>(rst_streams),
                static_cast<unsigned long long>(goaways),
                static_cast<unsigned long long>(window_stalls),
                static_cast<unsigned long long>(parse_errors));
  out += buf;
  if (faults_injected != 0) {
    std::snprintf(buf, sizeof buf, "  transport faults injected %llu\n",
                  static_cast<unsigned long long>(faults_injected));
    out += buf;
  }
  if (mitigation_events != 0) {
    std::snprintf(buf, sizeof buf, "  mitigation escalations %llu\n",
                  static_cast<unsigned long long>(mitigation_events));
    out += buf;
  }
  if (trace_drops != 0) {
    std::snprintf(buf, sizeof buf, "  trace ring drops %llu\n",
                  static_cast<unsigned long long>(trace_drops));
    out += buf;
  }
  if (reactor_parks != 0 || reactor_peak_in_flight != 0) {
    std::snprintf(buf, sizeof buf,
                  "  reactor: %llu parks over %llu rounds (mean park %.1f, "
                  "mean wakeups/site %.1f), peak in-flight %llu\n",
                  static_cast<unsigned long long>(reactor_parks),
                  static_cast<unsigned long long>(reactor_parked_rounds),
                  park_duration_rounds.mean(), wakeups_per_site.mean(),
                  static_cast<unsigned long long>(reactor_peak_in_flight));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  frame size mean %.1fB; stream wire bytes mean %.1fB; "
                "compression ratio mean %.2f (%llu conns); stall span mean "
                "%.1f events\n",
                frame_size.mean(), stream_wire_bytes.mean(),
                compression_ratio_pct.mean() / 100.0,
                static_cast<unsigned long long>(compression_ratio_pct.count()),
                stall_span_events.mean());
  out += buf;
  if (!violation_tags.empty()) {
    out += "  violations:\n";
    for (const auto& [tag, n] : violation_tags) {
      std::snprintf(buf, sizeof buf, "    %-44s %llu\n", tag.c_str(),
                    static_cast<unsigned long long>(n));
      out += buf;
    }
  }
  return out;
}

void MetricsRecorder::flush_connection() {
  for (const auto& [stream, bytes] : stream_bytes_) {
    registry_->stream_wire_bytes.add(bytes);
  }
  stream_bytes_.clear();
  open_stalls_.clear();
  if (response_block_sizes_.size() >= 2) {
    double sum = 0;
    for (const std::uint64_t s : response_block_sizes_) {
      sum += static_cast<double>(s);
    }
    const double s1 = static_cast<double>(response_block_sizes_.front());
    const double ratio =
        sum / (s1 * static_cast<double>(response_block_sizes_.size()));
    registry_->compression_ratio_pct.add(
        static_cast<std::uint64_t>(std::llround(ratio * 100.0)));
  }
  response_block_sizes_.clear();
}

void MetricsRecorder::finish() { flush_connection(); }

}  // namespace h2r::trace
