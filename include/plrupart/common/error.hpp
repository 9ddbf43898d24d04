// TimeoutError: a run that blew its watchdog deadline.
//
// InvariantError (common/assert.hpp) marks bugs and bad input, and every
// other failure of a job (I/O errors, injected faults) is one too. A
// deadline is the one failure callers name separately: the watchdog throws
// this type, and tests of it catch it by name.
#pragma once

#include "plrupart/export.hpp"

#include "plrupart/common/assert.hpp"

namespace plrupart {

/// A run exceeded its watchdog deadline (SimConfig::timeout_s, CLI
/// --job-timeout).
class PLRUPART_EXPORT TimeoutError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

}  // namespace plrupart
