// Sequential CDG parser (paper §1.4): the O(k n^4) baseline.
//
// Pipeline: unary constraint propagation, then binary constraint
// propagation with a consistency-maintenance sweep after each binary
// constraint, then filtering to a fixpoint (or a bounded number of
// sweeps).  A sentence is accepted iff every role retains at least one
// role value; actual parses are read out with cdg/extract.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cdg/constraint_eval.h"
#include "cdg/grammar.h"
#include "cdg/network.h"

namespace parsec::cdg {

/// Cooperative cancellation hook: polled between constraint
/// applications and filtering sweeps; returning true aborts the parse
/// (serve uses this for per-request deadlines).
using CancelFn = std::function<bool()>;

struct ParseOptions {
  /// Build the pair matrix before unary propagation, over the full
  /// initial domains, rather than on first binary constraint (see
  /// NetworkOptions::prebuild_arcs).
  bool prebuild_arcs = false;
  /// Run one consistency sweep after each binary constraint (paper
  /// §1.4); turning this off defers all maintenance to filtering.
  bool consistency_after_each_binary = true;
  /// Filtering sweep bound; <0 runs to fixpoint (sequential model),
  /// the MasPar uses a small constant (design decision 5; "typically
  /// fewer than 10 filtering steps", §2.1).
  int filter_sweeps = -1;
  /// Evaluate constraints through the vectorized path (hoisted-predicate
  /// truth masks + bitwise row kernels, with the whole constraint
  /// deciding mask-undecided pairs).  Results are bit-identical to the
  /// plain per-pair path; turning this off restores one evaluation per
  /// pair (differential tests, bench_ablation_masks).
  bool use_masks = true;
};

struct ParseResult {
  bool accepted = false;        // every role nonempty after propagation
  bool cancelled = false;       // the CancelFn fired mid-parse
  int filter_sweeps_used = 0;   // sweeps that eliminated something
  std::size_t alive_role_values = 0;
  bool ambiguous = false;       // some role retains > 1 role value
  NetworkCounters counters;     // work performed on the network
};

class SequentialParser {
 public:
  explicit SequentialParser(const Grammar& g, ParseOptions opt = {});

  const Grammar& grammar() const { return *grammar_; }
  const ParseOptions& options() const { return opt_; }

  /// Builds a fresh network for `s` (honouring prebuild_arcs).
  Network make_network(const Sentence& s) const;

  /// Runs the full pipeline on `net` (which must belong to this
  /// grammar).  `cancel` (if non-empty) is polled between constraints
  /// and sweeps; when it fires the result has `cancelled = true`,
  /// `accepted = false`, and the network is left mid-propagation.
  ParseResult parse(Network& net, const CancelFn& cancel = {}) const;

  /// Convenience: network construction + parse.
  ParseResult parse_sentence(const Sentence& s) const;

  /// Lexical-category ambiguity (the paper's nodes store "the possible
  /// parts of speech"; its access function (cat w) is single-valued,
  /// DESIGN.md §5 deviation 2): tries every tagging of `words`,
  /// preferred categories first, and returns the first accepted parse.
  /// `chosen` (if non-null) receives the winning tagging; on total
  /// failure the preferred tagging's (rejected) result is returned.
  ParseResult parse_any_tagging(const Lexicon& lexicon,
                                const std::vector<std::string>& words,
                                Sentence* chosen = nullptr,
                                std::size_t tagging_limit = 64) const;

  // ---- stepwise API (golden-figure tests, examples) --------------------
  /// Applies unary constraint `idx`; returns role values eliminated.
  int step_unary(Network& net, std::size_t idx) const;
  /// Applies all unary constraints.
  int run_unary(Network& net) const;
  /// Applies binary constraint `idx` (no consistency sweep).
  int step_binary(Network& net, std::size_t idx) const;
  /// Applies all binary constraints, with per-constraint consistency
  /// sweeps when enabled.
  int run_binary(Network& net) const;

  // Factored (hoisted) forms; each element's `.full` member is a copy
  // of the grammar's constraint, which the plain path evaluates.
  const std::vector<FactoredConstraint>& compiled_unary() const {
    return unary_;
  }
  const std::vector<FactoredConstraint>& compiled_binary() const {
    return binary_;
  }

 private:
  const Grammar* grammar_;
  ParseOptions opt_;
  std::vector<FactoredConstraint> unary_;
  std::vector<FactoredConstraint> binary_;
};

}  // namespace parsec::cdg
