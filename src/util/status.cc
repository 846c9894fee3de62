#include "util/status.h"

namespace h2r {

std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kProtocolError:
      return "PROTOCOL_ERROR";
    case StatusCode::kFlowControlError:
      return "FLOW_CONTROL_ERROR";
    case StatusCode::kCompressionError:
      return "COMPRESSION_ERROR";
    case StatusCode::kFrameSizeError:
      return "FRAME_SIZE_ERROR";
    case StatusCode::kRefused:
      return "REFUSED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  std::string out{h2r::to_string(code_)};
  if (const std::string_view text = message(); !text.empty()) {
    out += ": ";
    out += text;
  }
  return out;
}

Status OkStatus() noexcept { return Status{}; }

}  // namespace h2r
