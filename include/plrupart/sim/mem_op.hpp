// Trace records and trace sources.
//
// The simulator is trace-driven (the repo's substitute for the paper's
// cycle-accurate Turandot/PTCMP): a trace is a stream of memory operations,
// each carrying the number of non-memory instructions the core commits before
// it. Sources generate records on the fly (deterministically seeded), so no
// trace storage is needed.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>

#include "plrupart/cache/geometry.hpp"

namespace plrupart::sim {

struct PLRUPART_EXPORT MemOp {
  cache::Addr addr = 0;          ///< byte address
  bool write = false;
  std::uint32_t gap_instrs = 0;  ///< non-memory instructions committed first
};

class PLRUPART_EXPORT TraceSource {
 public:
  virtual ~TraceSource() = default;
  TraceSource() = default;
  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;

  /// Produce the next operation. Sources are infinite (synthetic generators
  /// loop); the simulator bounds execution by instruction count.
  virtual MemOp next() = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace plrupart::sim
