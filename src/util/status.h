// Status and Result<T>: recoverable-error plumbing used across the library.
//
// Protocol parsing and remote-endpoint interaction fail routinely (truncated
// frames, HPACK bombs, windows overflowing 2^31-1); those are *data* errors,
// not programmer errors, so they travel through Result<T> rather than
// exceptions. Exceptions remain reserved for precondition violations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace h2r {

/// Coarse classification of a failure. Mirrors the handful of distinctions
/// the callers actually branch on; detail goes in the message.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something out of contract
  kOutOfRange,        ///< read past end / value outside representable range
  kProtocolError,     ///< peer violated RFC 7540/7541
  kFlowControlError,  ///< window accounting violated (RFC 7540 §6.9)
  kCompressionError,  ///< HPACK context desynchronized (RFC 7541 §2.3.3)
  kFrameSizeError,    ///< frame length outside advertised bounds
  kRefused,           ///< endpoint declined (e.g. max streams exceeded)
  kUnavailable,       ///< transport closed / endpoint gone
  kInternal,          ///< invariant broken on our side
};

/// Human-readable name for a StatusCode ("OK", "PROTOCOL_ERROR", ...).
std::string_view to_string(StatusCode code) noexcept;

/// The text of a Status, as a std::string_view. Prefixing it with context
/// ("s2c parse: " + status.message()) builds a std::string.
class StatusMessage : public std::string_view {
 public:
  constexpr StatusMessage(std::string_view text) noexcept  // NOLINT
      : std::string_view(text) {}

  friend std::string operator+(std::string_view prefix, StatusMessage text) {
    std::string out;
    out.reserve(prefix.size() + text.size());
    out.append(prefix);
    out.append(text);
    return out;
  }
};

/// Value-type error carrier: a code plus an explanatory message.
///
/// Text contract: a string literal is borrowed, never copied, so building,
/// copying or returning a Status with literal text costs no allocation.
/// Text built at run time (a std::string, or a const char* of unknown
/// lifetime) is owned. A character array is taken for a string literal:
/// pass run-time text in a char buffer as std::string(buffer).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// A status with @p code whose message borrows the string literal
  /// @p literal.
  template <std::size_t N>
  Status(StatusCode code, const char (&literal)[N]) noexcept
      : code_(code), literal_(literal, N - 1) {}

  /// A status with @p code that owns the run-time text @p message.
  Status(StatusCode code, std::string message)
      : code_(code), owned_(std::move(message)) {}

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] StatusMessage message() const noexcept {
    return owned_.empty() ? literal_ : std::string_view(owned_);
  }

  /// Rewrites this status as @p code with the run-time text @p message,
  /// reusing the text storage it already owns: a status kept by its
  /// producer (a transport's close status) re-renders without allocating
  /// once its storage has grown to the text.
  void assign(StatusCode code, std::string_view message) {
    code_ = code;
    literal_ = {};
    owned_.assign(message);
  }

  /// "CODE: message" rendering for logs and test failures.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string_view literal_;  ///< borrowed literal text; empty when owned
  std::string owned_;         ///< run-time text; empty when borrowed
};

/// Shorthand constructors, mirroring absl::*Error style. Each takes its
/// message as Status does: a string literal is borrowed, anything else is
/// owned.
Status OkStatus() noexcept;
template <typename Text>
Status InvalidArgumentError(Text&& msg) {
  return Status(StatusCode::kInvalidArgument, std::forward<Text>(msg));
}
template <typename Text>
Status OutOfRangeError(Text&& msg) {
  return Status(StatusCode::kOutOfRange, std::forward<Text>(msg));
}
template <typename Text>
Status ProtocolViolationError(Text&& msg) {
  return Status(StatusCode::kProtocolError, std::forward<Text>(msg));
}
template <typename Text>
Status FlowControlViolationError(Text&& msg) {
  return Status(StatusCode::kFlowControlError, std::forward<Text>(msg));
}
template <typename Text>
Status CompressionFailureError(Text&& msg) {
  return Status(StatusCode::kCompressionError, std::forward<Text>(msg));
}
template <typename Text>
Status FrameSizeViolationError(Text&& msg) {
  return Status(StatusCode::kFrameSizeError, std::forward<Text>(msg));
}
template <typename Text>
Status RefusedError(Text&& msg) {
  return Status(StatusCode::kRefused, std::forward<Text>(msg));
}
template <typename Text>
Status UnavailableError(Text&& msg) {
  return Status(StatusCode::kUnavailable, std::forward<Text>(msg));
}
template <typename Text>
Status InternalError(Text&& msg) {
  return Status(StatusCode::kInternal, std::forward<Text>(msg));
}

/// Result<T>: either a value or a non-OK Status. Move-friendly; deref of an
/// errored Result throws std::logic_error (programmer error, not data error).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value — enables `return parsed_frame;`.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from error — enables `return ProtocolViolationError(...)`.
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (std::get<Status>(rep_).ok()) {
      throw std::logic_error("Result<T> constructed from OK status");
    }
  }

  [[nodiscard]] bool ok() const noexcept { return std::holds_alternative<T>(rep_); }

  /// Status of the result; OkStatus() when a value is held.
  [[nodiscard]] Status status() const {
    return ok() ? OkStatus() : std::get<Status>(rep_);
  }

  /// Access the held value. Precondition: ok().
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(rep_);
  }
  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(rep_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(rep_));
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  /// Returns the value or @p fallback when errored.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::logic_error("Result accessed while holding error: " +
                             std::get<Status>(rep_).to_string());
    }
  }

  std::variant<T, Status> rep_;
};

/// Propagate-on-error helpers (statement-expression free, portable).
#define H2R_RETURN_IF_ERROR(expr)                    \
  do {                                               \
    ::h2r::Status h2r_status_ = (expr);              \
    if (!h2r_status_.ok()) return h2r_status_;       \
  } while (false)

#define H2R_ASSIGN_OR_RETURN(lhs, rexpr)             \
  H2R_ASSIGN_OR_RETURN_IMPL_(                        \
      H2R_STATUS_CONCAT_(h2r_result_, __LINE__), lhs, rexpr)

#define H2R_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr)  \
  auto var = (rexpr);                                \
  if (!var.ok()) return var.status();                \
  lhs = std::move(var).value()

#define H2R_STATUS_CONCAT_INNER_(a, b) a##b
#define H2R_STATUS_CONCAT_(a, b) H2R_STATUS_CONCAT_INNER_(a, b)

}  // namespace h2r
