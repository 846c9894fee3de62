// Synthetic Alexa-1M population generation.
//
// generate_population() expands the paper's marginals (marginals.h) into a
// concrete, deterministic list of per-site behaviour specifications. A full
// H2Scope scan over the result (scan.h) re-derives the marginals — the
// measurement-consistency reproduction described in DESIGN.md §2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/probes.h"
#include "corpus/marginals.h"
#include "server/profile.h"

namespace h2r::corpus {

/// Complete behavioural specification of one synthetic site.
struct SiteSpec {
  std::string host;
  std::string family;  ///< profile key or synthetic "other-NNN"

  // TLS negotiation surface (§V-B): which extensions offer "h2".
  bool npn_h2 = false;
  bool alpn_h2 = false;
  /// Whether the site answers requests (the paper's tables cover only the
  /// 44,390 / 64,299 sites that returned HEADERS).
  bool responds = false;

  // Advertised SETTINGS; nullopt = omitted from the frame.
  bool null_settings = false;  ///< sends an empty SETTINGS frame
  std::optional<std::uint32_t> max_concurrent_streams;
  std::optional<std::uint32_t> initial_window_size;
  std::optional<std::uint32_t> max_frame_size;
  std::optional<std::uint32_t> max_header_list_size;

  // Behaviour axes (see ServerProfile for semantics).
  server::SmallWindowBehavior small_window =
      server::SmallWindowBehavior::kRespectWindow;
  bool flow_control_on_headers = false;
  server::ErrorReaction zero_wu_stream = server::ErrorReaction::kRstStream;
  server::ErrorReaction zero_wu_conn = server::ErrorReaction::kGoaway;
  server::ErrorReaction large_wu_stream = server::ErrorReaction::kRstStream;
  server::ErrorReaction large_wu_conn = server::ErrorReaction::kGoaway;
  server::SchedulerKind scheduler = server::SchedulerKind::kRoundRobin;
  server::ErrorReaction self_dependency = server::ErrorReaction::kRstStream;
  bool supports_push = false;
  bool hpack_aggressive = true;  ///< index response headers dynamically
  bool cookie_churn = false;
  int extra_header_count = 3;
  double base_rtt_ms = 60;
  /// Path packet-loss rate (PathModel::loss_rate). Most sites sit on clean
  /// paths; a tail is lossy. Feeds net::fault_probability in faulted scans.
  double loss_rate = 0;

  /// Materializes the server profile this site runs.
  [[nodiscard]] server::ServerProfile to_profile() const;
  /// Materializes a full probe target (profile + content + path).
  [[nodiscard]] core::Target to_target() const;

  /// to_target() into an existing target: @p out ends up equal to what it
  /// returns, and a string, list or map that already holds the right shape
  /// keeps its storage. The scan rewrites one Target per worker this way
  /// instead of building one per site.
  void fill_target(core::Target& out) const;
};

struct Population {
  Epoch epoch;
  double scale = 1.0;
  std::size_t total_scanned = 0;  ///< scaled Alexa list size
  std::size_t non_h2_sites = 0;   ///< scaled sites speaking no h2 at all
  std::vector<SiteSpec> sites;    ///< every h2-offering site, materialized

  [[nodiscard]] std::size_t responding_count() const;
};

/// Generates the population for @p epoch. @p scale > 1 subsamples uniformly
/// (1/scale of every category) for fast runs; benches use scale = 1.
Population generate_population(Epoch epoch, std::uint64_t seed,
                               double scale = 1.0);

}  // namespace h2r::corpus
