#include "server/profile.h"

#include <array>
#include <stdexcept>

namespace h2r::server {

std::string_view to_string(ErrorReaction r) noexcept {
  switch (r) {
    case ErrorReaction::kIgnore:
      return "ignore";
    case ErrorReaction::kRstStream:
      return "RST_STREAM";
    case ErrorReaction::kGoaway:
      return "GOAWAY";
    case ErrorReaction::kGoawayWithDebug:
      return "GOAWAY+debug";
  }
  return "?";
}

std::string_view to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kPriorityTree:
      return "priority-tree";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kFcfs:
      return "fcfs";
    case SchedulerKind::kFairShare:
      return "fair-share";
    case SchedulerKind::kPriorityStart:
      return "priority-start";
  }
  return "?";
}

bool scheduler_uses_tree(SchedulerKind k) noexcept {
  return k == SchedulerKind::kPriorityTree || k == SchedulerKind::kFairShare ||
         k == SchedulerKind::kPriorityStart;
}

std::string_view to_string(SmallWindowBehavior b) noexcept {
  switch (b) {
    case SmallWindowBehavior::kRespectWindow:
      return "respect-window";
    case SmallWindowBehavior::kZeroLengthData:
      return "zero-length-data";
    case SmallWindowBehavior::kStall:
      return "stall";
  }
  return "?";
}

// Every profile below is a transcription of the paper's Table III row for
// that server plus the SETTINGS defaults of the version the paper tested.

ServerProfile nginx_profile() {
  ServerProfile p;
  p.key = "nginx";
  p.server_header = "nginx/1.9.15";
  p.max_concurrent_streams = 128;
  // §V-C: Nginx announces initial window 0 and immediately re-opens the
  // connection window with WINDOW_UPDATE.
  p.initial_window_size = 0;
  p.window_update_after_settings = true;
  p.connection_window_bonus = 0x7FFF0000u - 65'535;
  p.zero_window_update_stream = ErrorReaction::kIgnore;
  p.zero_window_update_connection = ErrorReaction::kIgnore;
  p.scheduler = SchedulerKind::kRoundRobin;  // fails Algorithm 1
  p.self_dependency = ErrorReaction::kRstStream;
  p.supports_push = false;
  // §V-G: response header fields never enter the dynamic table.
  p.response_indexing = hpack::IndexingPolicy::kStaticOnly;
  return p;
}

ServerProfile litespeed_profile() {
  ServerProfile p;
  p.key = "litespeed";
  p.server_header = "LiteSpeed";
  p.max_concurrent_streams = 100;
  p.initial_window_size = 65'536;
  // Table III: LiteSpeed applies flow control to HEADERS frames too.
  // (The §V-D1 stall-under-tiny-window behaviour is a *wild-corpus* variant
  // layered on by corpus generation; the testbed build respects windows.)
  p.flow_control_on_headers = true;
  p.zero_window_update_stream = ErrorReaction::kRstStream;
  p.zero_window_update_connection = ErrorReaction::kGoaway;
  p.scheduler = SchedulerKind::kRoundRobin;  // fails Algorithm 1
  p.self_dependency = ErrorReaction::kIgnore;
  p.supports_push = false;
  return p;
}

ServerProfile h2o_profile() {
  ServerProfile p;
  p.key = "h2o";
  p.server_header = "h2o/1.6.2";
  p.max_concurrent_streams = 100;
  p.initial_window_size = 16'777'216;
  p.max_frame_size = 16'777'215;
  p.zero_window_update_stream = ErrorReaction::kRstStream;
  p.zero_window_update_connection = ErrorReaction::kGoaway;
  p.scheduler = SchedulerKind::kPriorityTree;  // passes Algorithm 1
  p.self_dependency = ErrorReaction::kGoaway;
  p.supports_push = true;
  return p;
}

ServerProfile nghttpd_profile() {
  ServerProfile p;
  p.key = "nghttpd";
  p.server_header = "nghttpd nghttp2/1.12.0";
  p.max_concurrent_streams = 100;
  // Table III: nghttpd escalates even stream-scoped zero window updates to
  // connection errors.
  p.zero_window_update_stream = ErrorReaction::kGoaway;
  p.zero_window_update_connection = ErrorReaction::kGoaway;
  p.scheduler = SchedulerKind::kPriorityTree;
  p.self_dependency = ErrorReaction::kGoaway;
  p.supports_push = true;
  return p;
}

ServerProfile tengine_profile() {
  // Tengine is an Nginx fork and inherits every quirk the paper observed.
  ServerProfile p = nginx_profile();
  p.key = "tengine";
  p.server_header = "Tengine/2.1.2";
  return p;
}

ServerProfile apache_profile() {
  ServerProfile p;
  p.key = "apache";
  p.server_header = "Apache/2.4.23";
  // Table III: the only tested server without NPN support.
  p.tls.supports_npn = false;
  p.max_concurrent_streams = 100;
  p.initial_window_size = 2'147'483'647;
  p.max_header_list_size = 16'384;
  p.zero_window_update_stream = ErrorReaction::kGoaway;
  p.zero_window_update_connection = ErrorReaction::kGoaway;
  p.scheduler = SchedulerKind::kPriorityTree;
  p.self_dependency = ErrorReaction::kGoaway;
  p.supports_push = true;
  return p;
}

ServerProfile gse_profile() {
  ServerProfile p;
  p.key = "gse";
  p.server_header = "GSE";
  p.max_concurrent_streams = 100;
  p.initial_window_size = 1'048'576;
  p.scheduler = SchedulerKind::kPriorityTree;
  p.supports_push = false;
  // Figures 4/5: GSE shows the best compression ratios (< 0.3).
  p.response_indexing = hpack::IndexingPolicy::kAggressive;
  return p;
}

ServerProfile cloudflare_nginx_profile() {
  ServerProfile p = nginx_profile();
  p.key = "cloudflare-nginx";
  p.server_header = "cloudflare-nginx";
  p.supports_push = true;  // CloudFlare enabled push in Apr 2016 [27]
  return p;
}

ServerProfile ideawebserver_profile() {
  ServerProfile p;
  p.key = "ideawebserver";
  p.server_header = "IdeaWebServer/v0.80";
  p.max_concurrent_streams = 100;
  p.max_header_list_size = 16'384;
  p.scheduler = SchedulerKind::kRoundRobin;
  // Figures 4/5: ratio ~1, like Nginx.
  p.response_indexing = hpack::IndexingPolicy::kStaticOnly;
  return p;
}

ServerProfile tengine_aserver_profile() {
  ServerProfile p = tengine_profile();
  p.key = "tengine-aserver";
  p.server_header = "Tengine/Aserver";
  return p;
}

std::vector<ServerProfile> testbed_profiles() {
  return {nginx_profile(),   litespeed_profile(), h2o_profile(),
          nghttpd_profile(), tengine_profile(),   apache_profile()};
}

const ServerProfile* find_profile(std::string_view key) {
  // Built once: a lookup copies one profile instead of building all ten.
  static const std::array<ServerProfile, 10> kProfiles = {
      nginx_profile(),   litespeed_profile(),       h2o_profile(),
      nghttpd_profile(), tengine_profile(),         apache_profile(),
      gse_profile(),     cloudflare_nginx_profile(), ideawebserver_profile(),
      tengine_aserver_profile()};
  for (const ServerProfile& p : kProfiles) {
    if (p.key == key) return &p;
  }
  return nullptr;
}

ServerProfile profile_by_key(const std::string& key) {
  if (const ServerProfile* p = find_profile(key)) return *p;
  throw std::out_of_range("unknown server profile: " + key);
}

}  // namespace h2r::server
