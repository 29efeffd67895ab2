// Error handling conventions for the library.
//
// Following the C++ Core Guidelines (I.10, E.2): precondition violations and
// unrecoverable configuration errors throw exceptions derived from
// quamax::Error.  Hot paths (annealing sweeps, energy evaluation) validate at
// construction time so the inner loops stay check-free.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace quamax {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition (bad dimension, out-of-range
/// parameter, unsupported configuration).
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A problem does not fit the targeted hardware graph (e.g. too many logical
/// qubits for the Chimera chip) — the paper's Table 2 "bold" cells.
class CapacityError : public Error {
 public:
  using Error::Error;
};

/// Throws InvalidArgument with `message` unless `condition` holds.  The
/// message is a view so a passing check on a hot path (a literal message)
/// builds no string; the owning copy is made only when throwing.
inline void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

}  // namespace quamax
