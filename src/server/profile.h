// Behaviour profiles for the HTTP/2 server engine.
//
// The paper's Table III is a matrix of *observable deviations* between six
// real implementations. The engine speaks RFC 7540 on the wire; a profile
// selects, per deviation axis, which of the documented behaviours it
// exhibits. The six testbed profiles (and four more server families seen in
// the wild corpus) are constructed here from the paper's findings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpack/encoder.h"
#include "net/alpn.h"
#include "server/mitigation.h"

namespace h2r::server {

/// How a server reacts to a protocol violation it detects.
enum class ErrorReaction : std::uint8_t {
  kIgnore,           ///< silently accept (Nginx on zero window update)
  kRstStream,        ///< RST_STREAM on the offending stream (RFC-suggested)
  kGoaway,           ///< treat as connection error
  kGoawayWithDebug,  ///< GOAWAY carrying explanatory debug data (rare, §V-D3)
};

std::string_view to_string(ErrorReaction r) noexcept;

/// Response scheduling discipline across concurrent streams.
enum class SchedulerKind : std::uint8_t {
  kPriorityTree,  ///< RFC 7540 §5.3 weighted dependency tree (H2O/nghttpd/Apache)
  kRoundRobin,    ///< interleaves but ignores priority (Nginx/LiteSpeed/Tengine)
  kFcfs,          ///< serial per-request, no interleaving (ablation baseline)
  /// Weighted fair sharing without parent-first gating: priority shows in
  /// stream *completion* order but not first-byte order — the wild servers
  /// that pass §V-E1's last-DATA rule only.
  kFairShare,
  /// Priority honoured for each stream's first DATA chunk, round-robin
  /// afterwards — passes the first-DATA rule only (rare in the wild).
  kPriorityStart,
};

/// True for disciplines that consult the §5.3 dependency tree.
bool scheduler_uses_tree(SchedulerKind k) noexcept;

std::string_view to_string(SchedulerKind k) noexcept;

/// What happens when the client forces a tiny stream window (§V-D1).
enum class SmallWindowBehavior : std::uint8_t {
  kRespectWindow,   ///< emit Sframe-sized DATA, as RFC requires
  kZeroLengthData,  ///< emit a zero-length DATA frame (observed on ~8k sites)
  kStall,           ///< send nothing at all (observed LiteSpeed behaviour)
};

std::string_view to_string(SmallWindowBehavior b) noexcept;

struct ServerProfile {
  std::string key;            ///< stable profile id, e.g. "nginx"
  std::string server_header;  ///< value of the `server` response header

  net::TlsEndpointConfig tls;
  /// Whether the server accepts cleartext HTTP/1.1 Upgrade: h2c (§3.2).
  bool supports_h2c = true;

  // ---- advertised SETTINGS --------------------------------------------
  std::optional<std::uint32_t> max_concurrent_streams = 100;
  /// Value announced for SETTINGS_INITIAL_WINDOW_SIZE; nullopt = omitted
  /// from the SETTINGS frame ("NULL" rows of Table V).
  std::optional<std::uint32_t> initial_window_size = 65'535;
  std::optional<std::uint32_t> max_frame_size = 16'384;
  std::optional<std::uint32_t> max_header_list_size;  ///< nullopt = unlimited
  std::uint32_t header_table_size = 4096;             ///< all servers: default
  /// Nginx idiom (§V-C): announce window 0, then immediately raise the
  /// connection window with WINDOW_UPDATE.
  bool window_update_after_settings = false;
  std::uint32_t connection_window_bonus = 0;  ///< WINDOW_UPDATE increment if above

  // ---- flow control ----------------------------------------------------
  /// LiteSpeed deviation: HEADERS withheld when the stream window is 0.
  bool flow_control_on_headers = false;
  /// Conservative deviation seen in the wild: HEADERS withheld while the
  /// *connection* window is 0 (noted in §III-C / §V-D2).
  bool headers_blocked_by_conn_window = false;
  SmallWindowBehavior small_window_behavior = SmallWindowBehavior::kRespectWindow;
  ErrorReaction zero_window_update_stream = ErrorReaction::kRstStream;
  ErrorReaction zero_window_update_connection = ErrorReaction::kGoaway;
  ErrorReaction large_window_update_stream = ErrorReaction::kRstStream;
  ErrorReaction large_window_update_connection = ErrorReaction::kGoaway;

  // ---- priority ---------------------------------------------------------
  SchedulerKind scheduler = SchedulerKind::kPriorityTree;
  ErrorReaction self_dependency = ErrorReaction::kRstStream;

  // ---- push -------------------------------------------------------------
  bool supports_push = false;

  // ---- HPACK ------------------------------------------------------------
  hpack::IndexingPolicy response_indexing = hpack::IndexingPolicy::kAggressive;
  bool use_huffman = true;

  // ---- DoS mitigation ---------------------------------------------------
  /// Disabled by default: the Table III testbed profiles reproduce the
  /// paper's (unhardened) servers. The attack matrix enables it per copy.
  MitigationPolicy mitigation;
};

/// The six testbed profiles of Table III, version-matched to the paper.
ServerProfile nginx_profile();      // Nginx 1.9.15
ServerProfile litespeed_profile();  // LiteSpeed 5.0.11
ServerProfile h2o_profile();        // H2O 1.6.2
ServerProfile nghttpd_profile();    // nghttpd 1.12.0
ServerProfile tengine_profile();    // Tengine 2.1.2
ServerProfile apache_profile();     // Apache 2.4.23

/// Additional families needed for the wild-corpus reproduction (Table IV).
ServerProfile gse_profile();               // Google GSE
ServerProfile cloudflare_nginx_profile();  // cloudflare-nginx
ServerProfile ideawebserver_profile();     // IdeaWebServer/v0.80
ServerProfile tengine_aserver_profile();   // Tengine/Aserver (tmall.com)

/// All testbed profiles in the paper's column order.
std::vector<ServerProfile> testbed_profiles();

/// Lookup by key ("nginx", "litespeed", ...). Throws std::out_of_range for
/// unknown keys.
ServerProfile profile_by_key(const std::string& key);

/// The same lookup without the copy: the process-wide profile for @p key,
/// or null for unknown keys.
[[nodiscard]] const ServerProfile* find_profile(std::string_view key);

}  // namespace h2r::server
