#include "h2/settings.h"

#include <algorithm>

namespace h2r::h2 {

Status SettingsMap::apply(std::uint16_t id, std::uint32_t value) {
  switch (static_cast<SettingId>(id)) {
    case SettingId::kEnablePush:
      if (value > 1) {
        return ProtocolViolationError("SETTINGS_ENABLE_PUSH must be 0 or 1");
      }
      break;
    case SettingId::kInitialWindowSize:
      if (value > static_cast<std::uint32_t>(kMaxWindowSize)) {
        return FlowControlViolationError(
            "SETTINGS_INITIAL_WINDOW_SIZE exceeds 2^31-1");
      }
      break;
    case SettingId::kMaxFrameSize:
      if (value < kDefaultMaxFrameSize || value > kMaxAllowedFrameSize) {
        return ProtocolViolationError(
            "SETTINGS_MAX_FRAME_SIZE outside [2^14, 2^24-1]");
      }
      break;
    default:
      break;  // unknown or unconstrained ids: record as-is
  }
  if (defined(id)) {
    defined_[id - 1u] = value;
    present_ = static_cast<std::uint8_t>(present_ | (1u << (id - 1u)));
    return OkStatus();
  }
  const auto it = std::lower_bound(
      unknown_.begin(), unknown_.end(), id,
      [](const auto& entry, std::uint16_t key) { return entry.first < key; });
  if (it != unknown_.end() && it->first == id) {
    it->second = value;
  } else {
    unknown_.insert(it, {id, value});
  }
  return OkStatus();
}

Status SettingsMap::apply_frame(const SettingsPayload& payload) {
  for (const auto& [id, value] : payload.entries) {
    H2R_RETURN_IF_ERROR(apply(id, value));
  }
  return OkStatus();
}

Status SettingsMap::apply_frame(const FrameView& view) {
  for (std::size_t i = 0; i < view.settings_entry_count(); ++i) {
    const auto [id, value] = view.setting_at(i);
    H2R_RETURN_IF_ERROR(apply(id, value));
  }
  return OkStatus();
}

std::uint32_t SettingsMap::header_table_size() const {
  return raw(SettingId::kHeaderTableSize).value_or(kDefaultHeaderTableSize);
}

bool SettingsMap::enable_push() const {
  return raw(SettingId::kEnablePush).value_or(kDefaultEnablePush) == 1;
}

std::optional<std::uint32_t> SettingsMap::max_concurrent_streams() const {
  return raw(SettingId::kMaxConcurrentStreams);
}

std::uint32_t SettingsMap::initial_window_size() const {
  return raw(SettingId::kInitialWindowSize).value_or(kDefaultInitialWindowSize);
}

std::uint32_t SettingsMap::max_frame_size() const {
  return raw(SettingId::kMaxFrameSize).value_or(kDefaultMaxFrameSize);
}

std::optional<std::uint32_t> SettingsMap::max_header_list_size() const {
  return raw(SettingId::kMaxHeaderListSize);
}

std::optional<std::uint32_t> SettingsMap::raw(SettingId id) const {
  const auto key = static_cast<std::uint16_t>(id);
  if (defined(key)) {
    if ((present_ & (1u << (key - 1u))) == 0) return std::nullopt;
    return defined_[key - 1u];
  }
  for (const auto& [uid, value] : unknown_) {
    if (uid == key) return value;
  }
  return std::nullopt;
}

std::vector<std::pair<SettingId, std::uint32_t>> SettingsMap::to_entries() const {
  // Ascending id order: unknown id 0, the defined ids, then the rest.
  std::vector<std::pair<SettingId, std::uint32_t>> out;
  auto unknown = unknown_.begin();
  for (; unknown != unknown_.end() && unknown->first < 1; ++unknown) {
    out.emplace_back(static_cast<SettingId>(unknown->first), unknown->second);
  }
  for (std::uint16_t id = 1; id <= kDefinedIds; ++id) {
    if ((present_ & (1u << (id - 1u))) != 0) {
      out.emplace_back(static_cast<SettingId>(id), defined_[id - 1u]);
    }
  }
  for (; unknown != unknown_.end(); ++unknown) {
    out.emplace_back(static_cast<SettingId>(unknown->first), unknown->second);
  }
  return out;
}

}  // namespace h2r::h2
