#include "parsec/omp_parser.h"

#include <algorithm>
#include <chrono>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"

#if defined(PARSEC_HAVE_OPENMP)
#include <omp.h>
#endif

namespace parsec::engine {

using cdg::FactoredConstraint;
using cdg::Network;

void OmpParser::apply_unary(Network& net, const FactoredConstraint& c) const {
  const int R = net.num_roles();
  const int D = net.domain_size();
  // Victim staging in the arena's rv_flags region: each worker writes
  // only its own roles' slices, so the marks are race-free.  Counters
  // are not charged inside the parallel region (this engine reports
  // work through wall-clock, not eval counts).
  auto flags = net.arena().rv_flags();
  std::fill(flags.begin(), flags.end(), std::uint8_t{0});
#if defined(PARSEC_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (int role = 0; role < R; ++role) {
    cdg::kernels::propagate_unary_masked(
        c, net.sentence(), net.indexer(), net.role_id_of(role),
        net.word_of_role(role), net.domain(role),
        flags.subspan(static_cast<std::size_t>(role) * D, D),
        cdg::kernels::MaskedCounters{});
  }
  std::vector<int> victims;
  for (int role = 0; role < R; ++role) {
    victims.clear();
    for (int rv = 0; rv < D; ++rv)
      if (flags[static_cast<std::size_t>(role) * D + rv])
        victims.push_back(rv);
    net.eliminate_batch(role, victims);
  }
}

OmpParser::OmpParser(const cdg::Grammar& g, OmpOptions opt)
    : grammar_(&g),
      opt_(opt),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

OmpResult OmpParser::parse(Network& net, const cdg::CancelFn& cancel) const {
  const auto t0 = std::chrono::steady_clock::now();
#if defined(PARSEC_HAVE_OPENMP)
  if (opt_.threads > 0) omp_set_num_threads(opt_.threads);
#endif
  OmpResult r;
  {
    obs::Span span("omp.unary");
    for (const auto& c : unary_) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_unary(net, c);
    }
  }
  {
    obs::Span span("omp.binary");
    // One pass over the pair matrix per constraint; this engine reports
    // work through wall-clock, so only the sweep bookkeeping is charged.
    cdg::kernels::MaskedCounters mc;
    mc.tile_sweeps = &net.counters().tile_sweeps;
    mc.lane_words = &net.counters().simd_lane_words;
    for (std::size_t i = 0; !r.cancelled && i < binary_.size(); ++i) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      net.sweep_binary(binary_[i], i, mc);
    }
  }
  int iters = 0;
  {
    obs::Span span("omp.filter");
    while (!r.cancelled &&
           (opt_.filter_iterations < 0 || iters < opt_.filter_iterations)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      if (net.synchronous_sweep(nullptr) == 0) break;
    }
    span.arg("iterations", iters);
  }
  r.consistency_iterations = iters;
  r.accepted = !r.cancelled && net.all_roles_nonempty();
#if defined(PARSEC_HAVE_OPENMP)
  r.threads_used = omp_get_max_threads();
#endif
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace parsec::engine
