#pragma once

/// \file status.hpp
/// The unified error model of the `fhg::api` protocol.
///
/// One enum covers every way a request can fail anywhere in the stack —
/// admission control (`kQueueFull`/`kStopped`), engine lookup and
/// validation (`kNotFound`, `kInvalidArgument`, `kAlreadyExists`,
/// `kFailedPrecondition`, `kResourceExhausted`), and the wire codec
/// (`kDecodeError`, `kUnsupportedVersion`) — so callers branch on one code
/// instead of unpicking a `bool` / optional / exception mix.  A `Status`
/// pairs the code with a human-readable detail string for logs; the code is
/// the contract, the detail is free-form.
///
/// This header is deliberately dependency-free (standard library only) so
/// layers *below* the api module — the engine, the service — can return
/// typed statuses without a dependency cycle.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace fhg::api {

/// Why a request failed (or `kOk`).  Wire-stable: values are part of the
/// protocol and must never be renumbered.
enum class StatusCode : std::uint8_t {
  kOk = 0,                  ///< the request succeeded
  kQueueFull = 1,           ///< admission: the owning shard's queue is at capacity
  kStopped = 2,             ///< admission: the service is draining or drained
  kNotFound = 3,            ///< no instance with the requested name
  kInvalidArgument = 4,     ///< malformed request (bad node, bad spec, bad command)
  kAlreadyExists = 5,       ///< create: the instance name is already taken
  kFailedPrecondition = 6,  ///< the operation needs state the tenant lacks (e.g. mutating a non-dynamic tenant)
  kResourceExhausted = 7,   ///< a serving limit was hit (e.g. aperiodic replay limit)
  kDecodeError = 8,         ///< the frame or payload failed strict decode validation
  kUnsupportedVersion = 9,  ///< the peer speaks a protocol version this build does not
  kInternal = 10,           ///< unexpected failure; detail carries the diagnosis
};

/// Number of status codes (the decode-time validation bound).
inline constexpr std::uint64_t kNumStatusCodes = 11;

/// Human-readable code name ("ok", "queue-full", "stopped", "not-found", …).
/// The admission names keep their historical spellings, so existing log grep
/// patterns keep working.
[[nodiscard]] constexpr std::string_view status_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kQueueFull:
      return "queue-full";
    case StatusCode::kStopped:
      return "stopped";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kAlreadyExists:
      return "already-exists";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kResourceExhausted:
      return "resource-exhausted";
    case StatusCode::kDecodeError:
      return "decode-error";
    case StatusCode::kUnsupportedVersion:
      return "unsupported-version";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

/// A status code plus a free-form detail string.  `code` is the typed
/// contract callers branch on; `detail` exists for humans and logs and is
/// never part of equality-of-behavior guarantees (but it *is* carried over
/// the wire, so both transports return identical details for identical
/// request streams).
struct Status {
  StatusCode code = StatusCode::kOk;  ///< the typed verdict
  std::string detail;                 ///< human-readable context; empty on success

  /// True iff the request succeeded.
  [[nodiscard]] bool ok() const noexcept { return code == StatusCode::kOk; }

  /// Human-readable name of `code`.
  [[nodiscard]] std::string_view name() const noexcept { return status_name(code); }

  /// Success.
  [[nodiscard]] static Status good() { return Status{}; }

  /// Failure with `code` and `detail`.
  [[nodiscard]] static Status error(StatusCode code, std::string detail) {
    return Status{code, std::move(detail)};
  }

  friend bool operator==(const Status&, const Status&) = default;
};

}  // namespace fhg::api
