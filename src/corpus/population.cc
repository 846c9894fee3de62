#include "corpus/population.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/rng.h"

namespace h2r::corpus {
namespace {

using server::ErrorReaction;
using server::SchedulerKind;
using server::ServerProfile;
using server::SmallWindowBehavior;

/// Fisher-Yates shuffle driven by our deterministic RNG.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    // Value-wise swap keeps std::vector<bool>'s proxy references happy.
    T tmp = v[i - 1];
    v[i - 1] = v[j];
    v[j] = tmp;
  }
}

/// Expands (value, count) rows into a flat shuffled column.
std::vector<std::int64_t> expand_column(const std::vector<ValueCount>& rows,
                                        Rng& rng) {
  std::vector<std::int64_t> out;
  for (const auto& [value, count] : rows) {
    out.insert(out.end(), count, value);
  }
  shuffle(out, rng);
  return out;
}

/// Builds the family column: Table IV names at their exact counts plus a
/// Zipf-distributed long tail of synthetic "other-NNN" families (the paper
/// saw 223 / 345 distinct server strings).
std::vector<std::string> family_column(const EpochMarginals& m, Rng& rng) {
  std::vector<std::string> out;
  for (const auto& [name, count] : m.server_families) {
    out.insert(out.end(), count, name);
  }
  // Zipf-ish tail, offset so no synthetic family crosses the paper's
  // 1,000-site Table IV threshold.
  const int tail_kinds = m.epoch == Epoch::kExp1 ? 217 : 338;
  double weight_sum = 0;
  for (int k = 1; k <= tail_kinds; ++k) weight_sum += 1.0 / (k + 7);
  std::size_t assigned = 0;
  for (int k = 1; k <= tail_kinds; ++k) {
    const std::size_t n = static_cast<std::size_t>(
        static_cast<double>(m.other_family_sites) * (1.0 / (k + 7)) /
        weight_sum);
    char buf[16];
    std::snprintf(buf, sizeof buf, "other-%03d", k);
    out.insert(out.end(), n, buf);
    assigned += n;
  }
  // Rounding remainder spreads across the first tail families, one each.
  for (std::size_t r = 0; r < m.other_family_sites - assigned; ++r) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "other-%03d",
                  static_cast<int>(r % 50) + 1);
    out.emplace_back(buf);
  }
  shuffle(out, rng);
  return out;
}

/// A column of n values where the first counts[i] entries are values[i]
/// and the remainder is `fill`, shuffled.
template <typename T>
std::vector<T> reaction_column(std::size_t n,
                               std::vector<std::pair<T, std::size_t>> counts,
                               T fill, Rng& rng) {
  std::vector<T> out;
  std::size_t assigned = 0;
  for (const auto& [value, count] : counts) {
    out.insert(out.end(), count, value);
    assigned += count;
  }
  if (assigned > n) {
    throw std::logic_error("reaction_column: counts exceed population");
  }
  out.insert(out.end(), n - assigned, fill);
  shuffle(out, rng);
  return out;
}

/// The content every corpus site serves: enough objects for every scan
/// probe, sized for scan throughput rather than testbed fidelity. One
/// shape with push resources and one without, built once.
const server::Site& corpus_content(bool push) {
  const auto build = [](bool with_push) {
    server::Site site;
    site.add_resource(
        {.path = "/", .size = 2'048, .content_type = "text/html"});
    site.add_resource(
        {.path = "/small", .size = 48, .content_type = "text/plain"});
    // One object larger than the 65,535-octet connection window for the
    // window-update and self-dependency probes.
    site.add_resource({.path = "/large/0",
                       .size = 128 * 1024,
                       .content_type = "application/octet-stream"});
    site.add_resource({.path = "/large/1",
                       .size = 128 * 1024,
                       .content_type = "application/octet-stream"});
    // Seven equal objects for Algorithm 1 (one drain + six prioritized).
    for (int i = 0; i < 7; ++i) {
      site.add_resource({.path = "/object/" + std::to_string(i),
                         .size = 64 * 1024,
                         .content_type = "application/octet-stream"});
    }
    if (with_push) {
      site.add_resource(
          {.path = "/style.css", .size = 4'096, .content_type = "text/css"});
      site.add_resource({.path = "/app.js",
                         .size = 8'192,
                         .content_type = "application/javascript"});
      site.add_resource(
          {.path = "/logo.png", .size = 16'384, .content_type = "image/png"});
      site.set_push_list("/", {"/style.css", "/app.js", "/logo.png"});
    }
    return site;
  };
  static const server::Site with_push = build(true);
  static const server::Site without_push = build(false);
  return push ? with_push : without_push;
}

/// Rewrites @p site as the corpus site of @p spec: the content shape, the
/// host, and site-specific response headers that give the HPACK probe
/// per-site variety.
void corpus_site_into(const SiteSpec& spec, server::Site& site) {
  site.assign_content(corpus_content(spec.supports_push));
  site.set_host(spec.host);
  site.clear_response_headers();
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (char c : spec.host) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  static const char* kNames[] = {"x-cache",       "via",         "etag",
                                 "cache-control", "x-request-id", "vary",
                                 "x-frame-options"};
  for (int i = 0; i < spec.extra_header_count; ++i) {
    char value[8];  // "v" and at most five digits
    std::snprintf(value, sizeof value, "v%u",
                  static_cast<unsigned>((h >> (i * 8)) & 0xFFFF));
    site.add_response_header(kNames[i % 7], value);
  }
  site.set_cookie_churn(spec.cookie_churn);
}

/// to_profile() into @p p, keeping its strings' storage.
void fill_profile(const SiteSpec& spec, ServerProfile& p) {
  const bool known = spec.family.rfind("other-", 0) != 0;
  if (known) {
    const ServerProfile* base = server::find_profile(spec.family);
    if (base == nullptr) {
      throw std::out_of_range("unknown server profile: " + spec.family);
    }
    p = *base;
  } else {
    static const ServerProfile kDefault;
    p = kDefault;
    p.key = spec.family;
    p.server_header.assign(spec.family).append("/1.0");
  }
  p.tls.supports_alpn = spec.alpn_h2;
  p.tls.supports_npn = spec.npn_h2;
  if (!spec.responds) {
    // Site negotiates h2 but never answers requests: it refuses every
    // stream, so the scanner sees no HEADERS and records it as
    // non-responding (the gap between §V-B's NPN/ALPN counts and the
    // HEADERS counts).
    p.max_concurrent_streams = 0;
    return;
  }

  if (spec.null_settings) {
    p.max_concurrent_streams = std::nullopt;
    p.initial_window_size = std::nullopt;
    p.max_frame_size = std::nullopt;
    p.max_header_list_size = std::nullopt;
    p.window_update_after_settings = false;
  } else {
    p.max_concurrent_streams = spec.max_concurrent_streams;
    p.initial_window_size = spec.initial_window_size;
    p.max_frame_size = spec.max_frame_size;
    p.max_header_list_size = spec.max_header_list_size;
    // The Nginx idiom (§V-C): sites announcing window 0 immediately re-open
    // the connection window.
    p.window_update_after_settings =
        spec.initial_window_size.has_value() && *spec.initial_window_size == 0;
    p.connection_window_bonus =
        p.window_update_after_settings ? 0x7FFF0000u - 65'535 : 0;
  }

  p.small_window_behavior = spec.small_window;
  p.flow_control_on_headers = spec.flow_control_on_headers;
  p.zero_window_update_stream = spec.zero_wu_stream;
  p.zero_window_update_connection = spec.zero_wu_conn;
  p.large_window_update_stream = spec.large_wu_stream;
  p.large_window_update_connection = spec.large_wu_conn;
  p.scheduler = spec.scheduler;
  p.self_dependency = spec.self_dependency;
  p.supports_push = spec.supports_push;
  p.response_indexing = spec.hpack_aggressive
                            ? hpack::IndexingPolicy::kAggressive
                            : hpack::IndexingPolicy::kStaticOnly;
}

}  // namespace

ServerProfile SiteSpec::to_profile() const {
  ServerProfile p;
  fill_profile(*this, p);
  return p;
}

void SiteSpec::fill_target(core::Target& t) const {
  t.host = host;
  fill_profile(*this, t.profile);
  corpus_site_into(*this, t.site);
  // The path and every probe-wiring field start from Target's defaults.
  static const core::Target kDefault;
  t.path = kDefault.path;
  t.path.label = host;
  t.path.base_rtt_ms = base_rtt_ms;
  t.path.loss_rate = loss_rate;
  t.offers_h2 = npn_h2 || alpn_h2;
  t.recorder = kDefault.recorder;
  t.limits = kDefault.limits;
  t.faults = kDefault.faults;
  t.ledger = kDefault.ledger;
  t.endpoints = kDefault.endpoints;
  t.restart();
}

core::Target SiteSpec::to_target() const {
  core::Target t;
  fill_target(t);
  return t;
}

std::size_t Population::responding_count() const {
  std::size_t n = 0;
  for (const auto& s : sites) n += s.responds ? 1 : 0;
  return n;
}

Population generate_population(Epoch epoch, std::uint64_t seed, double scale) {
  if (scale < 1.0) throw std::invalid_argument("scale must be >= 1");
  const EpochMarginals& m = marginals(epoch);
  Rng rng(seed ^ (epoch == Epoch::kExp1 ? 0x1111ull : 0x2222ull));

  // --- negotiation universe (§V-B): sites offering h2 at all -------------
  // |NPN ∪ ALPN| is not reported; we fix the union so that the NPN-only
  // remainder matches the paper's note about >100 server kinds speaking
  // only NPN, and derive the overlap.
  const std::size_t universe = epoch == Epoch::kExp1 ? 53'000 : 82'000;
  const std::size_t both = m.npn_sites + m.alpn_sites - universe;
  const std::size_t npn_only = m.npn_sites - both;
  const std::size_t alpn_only = m.alpn_sites - both;
  const std::size_t responding = m.responding_sites;

  // --- full-size per-dimension columns ------------------------------------
  // Sites [0, responding) respond; [responding, universe) negotiate only.
  enum class Neg : std::uint8_t { kBoth, kNpnOnly, kAlpnOnly };
  auto negotiation = reaction_column<Neg>(
      universe, {{Neg::kNpnOnly, npn_only}, {Neg::kAlpnOnly, alpn_only}},
      Neg::kBoth, rng);

  auto families = family_column(m, rng);

  std::size_t nulls = 0;
  for (const auto& vc : m.initial_window_size) {
    if (vc.value == kNullValue) nulls += vc.count;
  }
  auto null_col = reaction_column<bool>(responding, {{true, nulls}}, false, rng);

  auto strip_null = [](const std::vector<ValueCount>& rows) {
    std::vector<ValueCount> out;
    for (const auto& vc : rows) {
      if (vc.value != kNullValue) out.push_back(vc);
    }
    return out;
  };
  auto iws_col = expand_column(strip_null(m.initial_window_size), rng);
  auto mfs_col = expand_column(strip_null(m.max_frame_size), rng);
  auto mhls_col = expand_column(strip_null(m.max_header_list_size), rng);
  auto mcs_col = expand_column(strip_null(m.max_concurrent_streams), rng);

  auto zero_wu_stream_col = reaction_column<ErrorReaction>(
      responding,
      {{ErrorReaction::kRstStream, m.zero_wu_rst_sites},
       {ErrorReaction::kGoaway, m.zero_wu_goaway_sites},
       {ErrorReaction::kGoawayWithDebug, m.zero_wu_debug_sites}},
      ErrorReaction::kIgnore, rng);
  // §V-D3: "nearly all the websites return connection error" on the
  // connection-scoped variant.
  auto zero_wu_conn_col = reaction_column<ErrorReaction>(
      responding, {{ErrorReaction::kIgnore, epoch == Epoch::kExp1 ? 300u : 400u}},
      ErrorReaction::kGoaway, rng);
  auto large_wu_conn_col = reaction_column<ErrorReaction>(
      responding, {{ErrorReaction::kGoaway, m.large_wu_conn_goaway_sites}},
      ErrorReaction::kIgnore, rng);
  auto large_wu_stream_col = reaction_column<ErrorReaction>(
      responding, {{ErrorReaction::kRstStream, m.large_wu_stream_rst_sites}},
      ErrorReaction::kIgnore, rng);

  auto scheduler_col = reaction_column<SchedulerKind>(
      responding,
      {{SchedulerKind::kPriorityTree, m.priority_pass_both_sites},
       {SchedulerKind::kPriorityStart,
        m.priority_pass_first_sites - m.priority_pass_both_sites},
       {SchedulerKind::kFairShare,
        m.priority_pass_last_sites - m.priority_pass_both_sites}},
      SchedulerKind::kRoundRobin, rng);

  const std::size_t self_rest = responding - m.self_dep_rst_sites;
  auto self_dep_col = reaction_column<ErrorReaction>(
      responding,
      {{ErrorReaction::kRstStream, m.self_dep_rst_sites},
       {ErrorReaction::kGoaway, self_rest / 2}},
      ErrorReaction::kIgnore, rng);

  // --- assemble ------------------------------------------------------------
  Population pop;
  pop.epoch = epoch;
  pop.scale = scale;
  pop.total_scanned =
      static_cast<std::size_t>(static_cast<double>(m.total_scanned) / scale);
  pop.non_h2_sites = static_cast<std::size_t>(
      static_cast<double>(m.total_scanned - universe) / scale);

  std::vector<SiteSpec> sites(universe);
  std::size_t settings_cursor = 0;  // index into non-NULL settings columns
  const std::size_t headers_ok_left = m.zero_window_headers_sites;

  for (std::size_t i = 0; i < universe; ++i) {
    SiteSpec& s = sites[i];
    Rng site_rng = rng.fork(i);
    s.host = "site-" + std::to_string(i + 1) + ".example";
    s.family = families[i % families.size()];
    s.npn_h2 = negotiation[i] != Neg::kAlpnOnly;
    s.alpn_h2 = negotiation[i] != Neg::kNpnOnly;
    s.responds = i < responding;
    s.base_rtt_ms = 10.0 + site_rng.next_double() * 290.0;
    s.extra_header_count = 2 + static_cast<int>(site_rng.next_below(5));
    if (!s.responds) continue;

    s.null_settings = null_col[i];
    if (!s.null_settings) {
      s.initial_window_size = static_cast<std::uint32_t>(iws_col[settings_cursor]);
      s.max_frame_size = static_cast<std::uint32_t>(mfs_col[settings_cursor]);
      const std::int64_t mhls = mhls_col[settings_cursor];
      if (mhls != kUnlimitedValue) {
        s.max_header_list_size = static_cast<std::uint32_t>(mhls);
      }
      s.max_concurrent_streams =
          static_cast<std::uint32_t>(mcs_col[settings_cursor]);
      ++settings_cursor;
    }

    s.zero_wu_stream = zero_wu_stream_col[i];
    s.zero_wu_conn = zero_wu_conn_col[i];
    s.large_wu_stream = large_wu_stream_col[i];
    s.large_wu_conn = large_wu_conn_col[i];
    s.scheduler = scheduler_col[i];
    s.self_dependency = self_dep_col[i];
    s.supports_push = false;  // enabled for the named sites below
    s.cookie_churn = site_rng.next_double() < m.cookie_churn_fraction;

    double aggressive_p = 0.5;  // unknown families: coin flip
    for (const auto& [fam, frac] : m.hpack_aggressive_fraction) {
      if (fam == s.family) aggressive_p = frac;
    }
    s.hpack_aggressive = site_rng.next_double() < aggressive_p;
  }

  // Small-window behaviour (§V-D1) with the LiteSpeed coupling, assigned
  // with exact counts: the reported number of silent LiteSpeed sites stalls
  // first; the remaining stall quota goes to non-LiteSpeed sites; the
  // zero-length quota is split proportionally over what is left.
  {
    std::vector<std::size_t> litespeed_idx, other_idx;
    for (std::size_t i = 0; i < responding; ++i) {
      (sites[i].family == "litespeed" ? litespeed_idx : other_idx).push_back(i);
    }
    shuffle(litespeed_idx, rng);
    shuffle(other_idx, rng);

    const std::size_t ls_stall =
        std::min(m.sframe_silent_litespeed, litespeed_idx.size());
    const std::size_t other_stall = m.sframe_no_response_sites - ls_stall;
    for (std::size_t k = 0; k < ls_stall; ++k) {
      sites[litespeed_idx[k]].small_window = SmallWindowBehavior::kStall;
    }
    for (std::size_t k = 0; k < other_stall; ++k) {
      sites[other_idx[k]].small_window = SmallWindowBehavior::kStall;
    }
    // Zero-length sites: split over the two leftover pools proportionally.
    const std::size_t ls_rest = litespeed_idx.size() - ls_stall;
    const std::size_t other_rest = other_idx.size() - other_stall;
    const std::size_t zl_ls = m.sframe_zero_length_sites * ls_rest /
                              std::max<std::size_t>(1, ls_rest + other_rest);
    const std::size_t zl_other = m.sframe_zero_length_sites - zl_ls;
    for (std::size_t k = 0; k < zl_ls; ++k) {
      sites[litespeed_idx[ls_stall + k]].small_window =
          SmallWindowBehavior::kZeroLengthData;
    }
    for (std::size_t k = 0; k < zl_other; ++k) {
      sites[other_idx[other_stall + k]].small_window =
          SmallWindowBehavior::kZeroLengthData;
    }
    // Everyone else keeps the default kRespectWindow.
  }

  // Zero-window HEADERS conformance (§V-D2): the quota of conformant sites
  // spreads uniformly over the non-stall responding sites; stall sites are
  // silent at a zero window by construction.
  {
    std::vector<std::size_t> non_stall_sites;
    for (std::size_t i = 0; i < responding; ++i) {
      if (sites[i].small_window != SmallWindowBehavior::kStall) {
        non_stall_sites.push_back(i);
      } else {
        sites[i].flow_control_on_headers = true;
      }
    }
    shuffle(non_stall_sites, rng);
    for (std::size_t k = 0; k < non_stall_sites.size(); ++k) {
      sites[non_stall_sites[k]].flow_control_on_headers = k >= headers_ok_left;
    }
  }

  // The named push-enabled sites of §V-F / Figure 3 (always responding).
  for (std::size_t k = 0; k < m.push_sites.size() && k < responding; ++k) {
    SiteSpec& s = sites[k];
    s.host = m.push_sites[k];
    s.supports_push = true;
  }

  // Path loss rates, from an *independent* RNG stream so that adding this
  // column leaves every draw above — and therefore every historical site
  // attribute — bit-identical. Roughly 85% of paths are clean, 12% see mild
  // residential loss, and 3% sit on lossy (cellular-like) tails. Assigned
  // before the subsample so a scaled run keeps each site's rate.
  {
    Rng loss_rng(seed ^ 0x10557ull);
    for (std::size_t i = 0; i < universe; ++i) {
      const double roll = loss_rng.next_double();
      if (roll < 0.85) {
        sites[i].loss_rate = 0.0;
      } else if (roll < 0.97) {
        sites[i].loss_rate = 0.002 + 0.008 * loss_rng.next_double();
      } else {
        sites[i].loss_rate = 0.01 + 0.02 * loss_rng.next_double();
      }
    }
  }

  // --- uniform subsample for scale > 1 ------------------------------------
  if (scale > 1.0) {
    std::vector<SiteSpec> sampled;
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(universe) / scale);
    // The columns are already shuffled, so a strided pick is uniform; keep
    // category structure intact by sampling responding and non-responding
    // ranges proportionally.
    for (std::size_t i = 0; i < universe; ++i) {
      if (sampled.size() * universe < keep * (i + 1)) sampled.push_back(sites[i]);
    }
    pop.sites = std::move(sampled);
  } else {
    pop.sites = std::move(sites);
  }
  return pop;
}

}  // namespace h2r::corpus
