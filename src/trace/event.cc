#include "trace/event.h"

#include <cstdio>

namespace h2r::trace {
namespace {

void put_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string_view to_string(Direction d) noexcept {
  return d == Direction::kClientToServer ? "c2s" : "s2c";
}

std::string_view to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kConnectionStart:
      return "conn-start";
    case EventKind::kRoundMark:
      return "round";
    case EventKind::kFrame:
      return "frame";
    case EventKind::kParseError:
      return "parse-error";
    case EventKind::kSettingsApplied:
      return "settings-applied";
    case EventKind::kWindowStall:
      return "window-stall";
    case EventKind::kWindowResume:
      return "window-resume";
    case EventKind::kHpackInsert:
      return "hpack-insert";
    case EventKind::kHpackEvict:
      return "hpack-evict";
    case EventKind::kFault:
      return "fault";
    case EventKind::kMitigation:
      return "mitigation";
  }
  return "?";
}

void append_jsonl(std::string& out, const TraceEvent& ev,
                  std::string_view site) {
  char buf[160];
  out += '{';
  if (!site.empty()) {
    out += "\"site\":\"";
    put_escaped(out, site);
    out += "\",";
  }
  std::snprintf(buf, sizeof buf, "\"seq\":%llu,\"t\":%.3f,",
                static_cast<unsigned long long>(ev.seq), ev.time_ms);
  out += buf;
  out += "\"dir\":\"";
  out += to_string(ev.dir);
  out += "\",\"kind\":\"";
  out += to_string(ev.kind);
  out += "\",";
  // kParseError events name the offending frame type too (detail_b = 1
  // marks the type octet as meaningful — see ClientConnection::receive).
  const bool has_type =
      ev.kind == EventKind::kFrame ||
      (ev.kind == EventKind::kParseError && ev.detail_b != 0);
  const std::string_view type_name =
      has_type ? h2::to_string(static_cast<h2::FrameType>(ev.frame_type))
               : std::string_view{};
  std::snprintf(buf, sizeof buf, "\"stream\":%u,\"type\":\"", ev.stream_id);
  out += buf;
  put_escaped(out, type_name);
  std::snprintf(buf, sizeof buf,
                "\",\"flags\":%u,\"len\":%u,\"a\":%u,\"b\":%u,\"note\":\"",
                ev.flags, ev.wire_length, ev.detail_a, ev.detail_b);
  out += buf;
  put_escaped(out, ev.note);
  out += "\",\"tags\":[";
  for (std::size_t i = 0; i < ev.tags.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    put_escaped(out, ev.tags[i]);
    out += '"';
  }
  out += "]}\n";
}

std::string to_jsonl(const std::vector<TraceEvent>& events,
                     std::string_view site) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const auto& ev : events) append_jsonl(out, ev, site);
  return out;
}

}  // namespace h2r::trace
