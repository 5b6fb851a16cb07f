#pragma once
// The library-wide typed error model: pdl::Status (a code plus a
// human-readable message) and pdl::Result<T> (a value or a non-ok Status,
// tl::expected-style).  Every fallible front-door entry point -- Array
// creation, engine builds, serialization, feasibility queries -- reports
// failure through these types instead of nullptr / bool / ad-hoc throws.
//
// Conventions:
//   * Status::ok() / a value-holding Result is the success path.
//   * kInvalidArgument: the caller's request is malformed (bad spec, span
//     too small, out-of-range disk).  Fix the call site.
//   * kFailedPrecondition: the request is well-formed but the object is in
//     the wrong state for it (failing an already-failed disk, applying a
//     stale rebuild step).  Re-inspect state and retry differently.
//   * kUnsupported: no construction/route satisfies the request under the
//     given policy (e.g. nothing fits the unit budget).
//   * kDataLoss: the addressed data is unrecoverable (a stripe lost more
//     units than its codec tolerates).
//   * kParityInconsistent: the stripe's redundancy is torn (a rollback
//     write failed after a partial stripe write); the data units still
//     hold bytes, but parity cannot be trusted until the stripe is
//     re-encoded.
//   * kChecksumMismatch: a stored unit failed per-unit checksum
//     verification and could not be reconstructed from redundancy (rot
//     plus existing erasures exceeded the codec's tolerance).
//   * kParseError / kIoError: malformed persisted state / filesystem
//     failure.
//   * Exceptions remain reserved for programmer errors and internal
//     invariant violations (std::logic_error and friends).
//
// Result<T> deliberately stays minimal: ok(), value(), status(),
// value_or(), and pointer-style access.  value() on an error Result throws
// std::logic_error -- accessing an unchecked error is a bug, not a
// recoverable condition.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace pdl {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kOutOfRange,
  kUnsupported,
  kDataLoss,
  kParseError,
  kIoError,
  kInternal,
  kParityInconsistent,
  kChecksumMismatch,
};

[[nodiscard]] std::string_view status_code_name(StatusCode code) noexcept;

class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status invalid_argument(std::string message) {
    return {StatusCode::kInvalidArgument, std::move(message)};
  }
  [[nodiscard]] static Status failed_precondition(std::string message) {
    return {StatusCode::kFailedPrecondition, std::move(message)};
  }
  [[nodiscard]] static Status not_found(std::string message) {
    return {StatusCode::kNotFound, std::move(message)};
  }
  [[nodiscard]] static Status out_of_range(std::string message) {
    return {StatusCode::kOutOfRange, std::move(message)};
  }
  [[nodiscard]] static Status unsupported(std::string message) {
    return {StatusCode::kUnsupported, std::move(message)};
  }
  [[nodiscard]] static Status data_loss(std::string message) {
    return {StatusCode::kDataLoss, std::move(message)};
  }
  [[nodiscard]] static Status parse_error(std::string message) {
    return {StatusCode::kParseError, std::move(message)};
  }
  [[nodiscard]] static Status io_error(std::string message) {
    return {StatusCode::kIoError, std::move(message)};
  }
  [[nodiscard]] static Status internal(std::string message) {
    return {StatusCode::kInternal, std::move(message)};
  }
  [[nodiscard]] static Status parity_inconsistent(std::string message) {
    return {StatusCode::kParityInconsistent, std::move(message)};
  }
  [[nodiscard]] static Status checksum_mismatch(std::string message) {
    return {StatusCode::kChecksumMismatch, std::move(message)};
  }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  /// "OK", or "INVALID_ARGUMENT: <message>".
  [[nodiscard]] std::string to_string() const {
    if (ok()) return "OK";
    std::string out(status_code_name(code_));
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status&, const Status&) = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// The success Status (absl-style spelling; Status::ok() is the query).
[[nodiscard]] inline Status OkStatus() { return {}; }

/// A value of type T, or the Status explaining why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Success.  Implicit so `return value;` works.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Failure.  Implicit so `return Status::...;` works.  Constructing a
  /// Result from an OK status is a bug; it is demoted to kInternal so the
  /// error path stays an error path.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok())
      status_ = Status::internal("Result constructed from OK status");
  }

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The status: OK when a value is held.
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// The held value.  Throws std::logic_error when !ok() -- accessing an
  /// unchecked error Result is a programming bug.
  [[nodiscard]] const T& value() const& {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return *std::move(value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  template <typename U>
  [[nodiscard]] T value_or(U&& fallback) const& {
    return ok() ? *value_ : static_cast<T>(std::forward<U>(fallback));
  }
  template <typename U>
  [[nodiscard]] T value_or(U&& fallback) && {
    return ok() ? *std::move(value_)
                : static_cast<T>(std::forward<U>(fallback));
  }

 private:
  void require_ok() const {
    if (!ok())
      throw std::logic_error("Result::value on error: " + status_.to_string());
  }

  std::optional<T> value_;
  Status status_;  ///< OK iff value_ is engaged
};

}  // namespace pdl
