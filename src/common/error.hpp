// Error handling primitives shared by every gridadmm module.
#pragma once

#include <stdexcept>
#include <string>

namespace gridadmm {

/// Base class for all errors raised by the library.
class GridError : public std::runtime_error {
 public:
  explicit GridError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when an input file or case description cannot be parsed.
class ParseError : public GridError {
 public:
  explicit ParseError(const std::string& what) : GridError(what) {}
};

/// Raised when a network fails validation (disconnected, missing data, ...).
class ModelError : public GridError {
 public:
  explicit ModelError(const std::string& what) : GridError(what) {}
};

/// Raised when a numerical routine cannot continue (singular system, ...).
class NumericalError : public GridError {
 public:
  explicit NumericalError(const std::string& what) : GridError(what) {}
};

/// Raised when caller-supplied inputs fail validation (negative load scale,
/// out-of-range branch index, non-finite loads, ...). Distinct from
/// ModelError so callers can tell "your request is malformed" apart from
/// "the network itself is broken".
class ValidationError : public GridError {
 public:
  explicit ValidationError(const std::string& what) : GridError(what) {}
};

/// Raised when a bounded resource is exhausted and the work is shed rather
/// than queued — the solve service's admission-control error. Callers may
/// retry later; nothing was accepted.
class CapacityError : public GridError {
 public:
  explicit CapacityError(const std::string& what) : GridError(what) {}
};

/// Raised for transient device-layer faults (launch failures, latency
/// blowups surfacing as failures, allocation failures). Retryable by
/// contract: the same work may succeed on a later attempt or another shard,
/// so the serve layer answers it with backoff-retry instead of failing the
/// request. Every other exception escaping a solve is treated as permanent.
class TransientDeviceError : public GridError {
 public:
  explicit TransientDeviceError(const std::string& what) : GridError(what) {}
};

/// Raised when a request's deadline expired before the solver could start
/// on it — at admission (already expired on arrival) or at dispatch pickup
/// (expired while queued). The work was shed, never solved; distinct from
/// CapacityError so callers can tell "too late" apart from "too busy".
class DeadlineError : public GridError {
 public:
  explicit DeadlineError(const std::string& what) : GridError(what) {}
};

/// Raised when every rung of the engine escalation ladder was exhausted and
/// the scenario still did not converge — batch ADMM and the MiniIPM
/// fallback both failed or ran out of budget. Terminal for the request (not
/// retryable): the same inputs will fail the same way. Carries the final
/// engine's diagnostics in the message so callers can tell a KKT
/// factorization failure apart from an iteration or wall-clock budget
/// exhaustion.
class ConvergenceError : public GridError {
 public:
  explicit ConvergenceError(const std::string& what) : GridError(what) {}
};

/// Throws GridError with `msg` if `cond` is false. Used for precondition
/// checks that must stay active in release builds.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw GridError(msg);
}

/// Literal-message overload: the std::string is built only on failure, so
/// a passing check costs one branch (the std::string overload would
/// heap-allocate the literal on every call, even when the check passes).
inline void require(bool cond, const char* msg) {
  if (!cond) throw GridError(msg);
}

/// Throws ValidationError with `msg` if `cond` is false. Used for checks on
/// caller-supplied inputs (scenario definitions, solve requests), so
/// clients can distinguish malformed requests from internal faults.
inline void require_valid(bool cond, const std::string& msg) {
  if (!cond) throw ValidationError(msg);
}

/// Literal-message overload of require_valid (see require above).
inline void require_valid(bool cond, const char* msg) {
  if (!cond) throw ValidationError(msg);
}

}  // namespace gridadmm
