// Host-parallel PARSEC using OpenMP.
//
// The paper targets a SIMD array; on a modern shared-memory host the
// same data parallelism maps onto threads: unary constraints partition
// by role.  Binary constraints are one pass over the network's pair
// matrix, and consistency maintenance is the synchronous sweep
// (support computed before any elimination, like the P-RAM engine), so
// the fixpoint is identical to the sequential parser's.  Constraints
// are evaluated through the vectorized path (hoisted-predicate truth
// masks + bitwise row kernels).  Falls back to single-threaded loops
// when built without OpenMP.
#pragma once

#include "cdg/network.h"
#include "cdg/parser.h"

namespace parsec::engine {

struct OmpOptions {
  /// Filtering sweep bound; <0 runs to fixpoint.
  int filter_iterations = -1;
  /// Thread count; 0 uses the OpenMP default.
  int threads = 0;
};

struct OmpResult {
  bool accepted = false;
  bool cancelled = false;  // CancelFn fired at an engine checkpoint
  int consistency_iterations = 0;
  int threads_used = 1;
  double seconds = 0.0;  // host wall-clock
};

class OmpParser {
 public:
  explicit OmpParser(const cdg::Grammar& g, OmpOptions opt = {});

  /// Parses `net` in place.  `cancel` (if non-empty) is polled at every
  /// engine checkpoint — before each unary/binary constraint and each
  /// filtering sweep — so a fired deadline aborts within one phase.
  OmpResult parse(cdg::Network& net, const cdg::CancelFn& cancel = {}) const;

 private:
  void apply_unary(cdg::Network& net, const cdg::FactoredConstraint& c) const;

  const cdg::Grammar* grammar_;
  OmpOptions opt_;
  std::vector<cdg::FactoredConstraint> unary_;
  std::vector<cdg::FactoredConstraint> binary_;
};

}  // namespace parsec::engine
