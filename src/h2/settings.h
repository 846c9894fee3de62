// SETTINGS parameter book-keeping (RFC 7540 §6.5).
//
// Each endpoint tracks two SettingsMaps: the values *it* advertised (its own
// limits) and the values the *peer* advertised (limits it must respect).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "h2/constants.h"
#include "h2/frame.h"
#include "h2/frame_view.h"
#include "util/status.h"

namespace h2r::h2 {

/// Current effective values of the six defined parameters, with RFC
/// defaults for everything never advertised.
class SettingsMap {
 public:
  SettingsMap() = default;

  /// Forgets every advertised value (back to all-defaults), keeping the
  /// storage for unknown ids.
  void clear() noexcept {
    present_ = 0;
    unknown_.clear();
  }

  /// Validates and applies one (id, value) pair. Unknown ids are recorded
  /// but otherwise ignored, as §6.5.2 requires.
  /// Errors: ENABLE_PUSH not in {0,1} (PROTOCOL_ERROR), INITIAL_WINDOW_SIZE
  /// > 2^31-1 (FLOW_CONTROL_ERROR), MAX_FRAME_SIZE outside [2^14, 2^24-1]
  /// (PROTOCOL_ERROR).
  Status apply(std::uint16_t id, std::uint32_t value);

  /// Applies every entry of a SETTINGS frame payload, in order.
  Status apply_frame(const SettingsPayload& payload);

  /// Same, straight from a zero-copy SETTINGS FrameView.
  Status apply_frame(const FrameView& view);

  [[nodiscard]] std::uint32_t header_table_size() const;
  [[nodiscard]] bool enable_push() const;
  /// nullopt = unlimited (parameter absent), per §6.5.2.
  [[nodiscard]] std::optional<std::uint32_t> max_concurrent_streams() const;
  [[nodiscard]] std::uint32_t initial_window_size() const;
  [[nodiscard]] std::uint32_t max_frame_size() const;
  /// nullopt = unlimited.
  [[nodiscard]] std::optional<std::uint32_t> max_header_list_size() const;

  /// Raw value if this id was ever advertised.
  [[nodiscard]] std::optional<std::uint32_t> raw(SettingId id) const;

  /// Entries that differ from defaults, in a stable order — what an endpoint
  /// puts into its initial SETTINGS frame.
  [[nodiscard]] std::vector<std::pair<SettingId, std::uint32_t>> to_entries() const;

 private:
  /// The six ids RFC 7540 defines live in a fixed array (bit id-1 of
  /// present_ says whether one was advertised); anything else is kept,
  /// sorted by id, in unknown_.
  static constexpr std::size_t kDefinedIds = 6;
  [[nodiscard]] static bool defined(std::uint16_t id) noexcept {
    return id >= 1 && id <= kDefinedIds;
  }

  std::array<std::uint32_t, kDefinedIds> defined_{};
  std::uint8_t present_ = 0;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> unknown_;
};

}  // namespace h2r::h2
