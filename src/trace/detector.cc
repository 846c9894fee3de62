#include "trace/detector.h"

#include <cstdio>

#include "h2/constants.h"

namespace h2r::trace {
namespace {

using h2::FrameType;

// Settings identifier for SETTINGS_INITIAL_WINDOW_SIZE (RFC 7540 §6.5.2).
constexpr std::uint32_t kInitialWindowSizeId = 4;

constexpr DetectorThresholds kThresholds{};

constexpr AttackClass kReportedClasses[] = {
    AttackClass::kSlowRead,    AttackClass::kSlowPost,
    AttackClass::kRapidReset,  AttackClass::kControlFlood,
    AttackClass::kPriorityChurn,
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_ttd(std::string& out, const char* name, const Histogram& hist) {
  out += '"';
  out += name;
  out += "\":{\"count\":";
  append_u64(out, hist.count());
  out += ",\"sum\":";
  append_u64(out, hist.sum());
  char buf[32];
  std::snprintf(buf, sizeof buf, ",\"mean\":%.3f}", hist.mean());
  out += buf;
}

}  // namespace

std::string_view to_string(AttackClass cls) noexcept {
  switch (cls) {
    case AttackClass::kNone:
      return "none";
    case AttackClass::kSlowRead:
      return "slow-read";
    case AttackClass::kSlowPost:
      return "slow-post";
    case AttackClass::kRapidReset:
      return "rapid-reset";
    case AttackClass::kControlFlood:
      return "control-flood";
    case AttackClass::kPriorityChurn:
      return "priority-churn";
  }
  return "?";
}

void DetectorReport::merge(const DetectorReport& other) {
  connections += other.connections;
  for (std::size_t i = 0; i < kAttackClassCount; ++i) {
    flagged[i] += other.flagged[i];
    events_to_detect[i].merge(other.events_to_detect[i]);
    rounds_to_detect[i].merge(other.rounds_to_detect[i]);
  }
}

std::uint64_t DetectorReport::total_detections() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < kAttackClassCount; ++i) n += flagged[i];
  return n;
}

std::string DetectorReport::to_json() const {
  std::string out;
  out.reserve(512);
  out += "{\"connections\":";
  append_u64(out, connections);
  out += ",\"total_detections\":";
  append_u64(out, total_detections());
  out += ",\"classes\":{";
  bool first = true;
  for (const AttackClass cls : kReportedClasses) {
    const auto i = static_cast<std::size_t>(cls);
    if (!first) out += ',';
    first = false;
    out += '"';
    out += to_string(cls);
    out += "\":{\"flagged\":";
    append_u64(out, flagged[i]);
    out += ',';
    append_ttd(out, "events_to_detect", events_to_detect[i]);
    out += ',';
    append_ttd(out, "rounds_to_detect", rounds_to_detect[i]);
    out += '}';
  }
  out += "}}";
  return out;
}

void SequenceDetector::observe_record(const WireRecord& ev) {
  if (kind_of(ev) == EventKind::kConnectionStart) {
    fold_connection();
    saw_connection_ = true;
    return;
  }
  saw_connection_ = true;
  ++conn_events_;

  switch (kind_of(ev)) {
    case EventKind::kRoundMark:
      ++rounds_;
      // Slow-read is the one rule whose clock is rounds, not frames: many
      // tiny-window request streams held open with stream replenishment
      // withheld. Evaluated on round boundaries.
      if (!fired_[static_cast<std::size_t>(AttackClass::kSlowRead)] &&
          any_request_ && client_iws_ < kThresholds.tiny_window &&
          request_streams_ >= kThresholds.slow_read_min_streams &&
          stream_window_updates_ == 0 &&
          rounds_ - first_request_round_ >= kThresholds.slow_read_min_rounds) {
        flag(AttackClass::kSlowRead);
      }
      return;
    case EventKind::kSettingsApplied:
      if (dir_of(ev) == Direction::kClientToServer &&
          a_of(ev) == kInitialWindowSizeId) {
        client_iws_ = b_of(ev);
      }
      return;
    case EventKind::kFrame:
      break;
    default:
      return;
  }
  if (dir_of(ev) != Direction::kClientToServer) return;

  switch (static_cast<FrameType>(type_of(ev))) {
    case FrameType::kHeaders: {
      ++request_streams_;
      if (!any_request_) {
        any_request_ = true;
        first_request_round_ = rounds_;
      }
      if ((flags_of(ev) & h2::flags::kEndStream) == 0) {
        uploads_.try_emplace(stream_of(ev),
                             UploadState{rounds_, rounds_, 0, false});
      }
      break;
    }
    case FrameType::kData: {
      auto it = uploads_.find(stream_of(ev));
      if (it == uploads_.end()) break;
      if ((flags_of(ev) & h2::flags::kEndStream) != 0) {
        uploads_.erase(it);  // upload completed normally
        break;
      }
      UploadState& up = it->second;
      up.last_round = rounds_;
      if (a_of(ev) <= kThresholds.slow_post_max_chunk) {
        ++up.dribble_frames;
      } else {
        up.oversized = true;
      }
      if (!fired_[static_cast<std::size_t>(AttackClass::kSlowPost)] &&
          !up.oversized &&
          up.dribble_frames >= kThresholds.slow_post_min_frames &&
          up.last_round - up.first_round >= kThresholds.slow_post_min_rounds) {
        flag(AttackClass::kSlowPost);
      }
      break;
    }
    case FrameType::kRstStream:
      ++client_resets_;
      uploads_.erase(stream_of(ev));
      if (!fired_[static_cast<std::size_t>(AttackClass::kRapidReset)] &&
          client_resets_ >= kThresholds.rapid_reset_min) {
        flag(AttackClass::kRapidReset);
      }
      break;
    case FrameType::kPing:
    case FrameType::kSettings:
      if ((flags_of(ev) & h2::flags::kAck) != 0) break;
      ++control_frames_;
      if (!fired_[static_cast<std::size_t>(AttackClass::kControlFlood)] &&
          control_frames_ >= kThresholds.control_flood_min) {
        flag(AttackClass::kControlFlood);
      }
      break;
    case FrameType::kPriority:
      ++priority_frames_;
      if (!fired_[static_cast<std::size_t>(AttackClass::kPriorityChurn)] &&
          priority_frames_ >= kThresholds.priority_churn_min) {
        flag(AttackClass::kPriorityChurn);
      }
      break;
    case FrameType::kWindowUpdate:
      if (stream_of(ev) != 0) ++stream_window_updates_;
      break;
    default:
      break;
  }
}

void SequenceDetector::flag(AttackClass cls) {
  fired_[static_cast<std::size_t>(cls)] = true;
  live_.push_back(Detection{cls, conn_events_, rounds_});
}

void SequenceDetector::fold_connection() {
  if (!saw_connection_) return;
  ++report_.connections;
  for (const Detection& d : live_) {
    const auto i = static_cast<std::size_t>(d.cls);
    ++report_.flagged[i];
    report_.events_to_detect[i].add(d.events_to_detect);
    report_.rounds_to_detect[i].add(d.rounds_to_detect);
  }
  live_.clear();
  saw_connection_ = false;
  conn_events_ = 0;
  rounds_ = 0;
  client_iws_ = 65535;
  request_streams_ = 0;
  first_request_round_ = 0;
  any_request_ = false;
  stream_window_updates_ = 0;
  client_resets_ = 0;
  control_frames_ = 0;
  priority_frames_ = 0;
  uploads_.clear();
  fired_ = {};
}

void SequenceDetector::finish() { fold_connection(); }

}  // namespace h2r::trace
