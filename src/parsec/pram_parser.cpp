#include "parsec/pram_parser.h"

#include <algorithm>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"

namespace parsec::engine {

using cdg::FactoredConstraint;
using cdg::Network;

PramParser::PramParser(const cdg::Grammar& g, PramOptions opt)
    : grammar_(&g),
      opt_(opt),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

void PramParser::apply_unary_parallel(Network& net, pram::Machine& m,
                                      const FactoredConstraint& c) const {
  // One step, one processor per alive role value: test the constraint.
  // The evaluation itself runs host-side through the shared masked
  // unary kernel; the step model only needs the processor count (which
  // reflects the abstract machine, not the host-side shortcut).
  m.for_all(net.total_alive(), [](std::size_t) {});
  const int victims = net.sweep_unary(c, cdg::kernels::MaskedCounters{});
  // One step, O(n^2) processors per victim: zero its rows/columns and
  // clear the domain bit (the writes are to disjoint or identically-
  // valued cells, so Common CRCW holds).
  const std::size_t zero_procs = static_cast<std::size_t>(victims) *
                                 static_cast<std::size_t>(net.num_roles() - 1) *
                                 static_cast<std::size_t>(net.domain_size());
  m.for_all(std::max<std::size_t>(zero_procs, 1), [](std::size_t) {});
}

void PramParser::apply_binary_parallel(Network& net, pram::Machine& m,
                                       const FactoredConstraint& c,
                                       std::size_t slot) const {
  // One parallel step, one processor per arc element (pair of alive
  // role values on an arc): O(n^4) processors.
  net.refresh_alive_cache();
  const int R = net.num_roles();
  std::size_t pairs = 0;
  for (int a = 0; a < R; ++a)
    for (int b = a + 1; b < R; ++b)
      pairs += net.alive_list(a).size() * net.alive_list(b).size();

  m.for_all(std::max<std::size_t>(pairs, 1), [](std::size_t) {});
  // The actual evaluation (performed host-side through the masked
  // sweep, but each pair decided independently, exactly as the step
  // models).  Sweep accounting only: the eval/masked-pair charges stay
  // with the step model's processor counts (the PRAM cost story), but
  // the host-side sweeps are real work and the perf gate pins them per
  // backend.
  cdg::kernels::MaskedCounters mc;
  mc.tile_sweeps = &net.counters().tile_sweeps;
  mc.lane_words = &net.counters().simd_lane_words;
  net.sweep_binary(c, slot, mc);
}

int PramParser::parallel_consistency_step(Network& net,
                                          pram::Machine& m) const {
  const int R = net.num_roles();
  net.refresh_alive_cache();
  // Support of every alive role value, all computed from the pre-sweep
  // state.  On the CRCW machine this is: one step of concurrent-write
  // ORs over each row/column (O(n^2) cells per role value), one step of
  // ANDs — constant time with one processor per arc element.  Host-side
  // the same bits come from the network's synchronous sweep.
  const std::size_t or_procs =
      net.alive_cache_total() * static_cast<std::size_t>(R - 1) *
      static_cast<std::size_t>(net.domain_size());
  m.for_all(std::max<std::size_t>(or_procs, 1), [](std::size_t) {});
  m.for_all(std::max<std::size_t>(net.alive_cache_total(), 1),
            [](std::size_t) {});
  // One zeroing step for all victims simultaneously.
  m.for_all(std::max<std::size_t>(or_procs, 1), [](std::size_t) {});
  return net.synchronous_sweep(&net.counters().support_checks);
}

PramResult PramParser::parse(Network& net, const cdg::CancelFn& cancel) const {
  pram::Machine m(opt_.write_mode);
  // Role-value generation: constant steps, O(n^2) processors (§2.1).
  m.for_all(static_cast<std::size_t>(net.num_roles()) *
                static_cast<std::size_t>(net.domain_size()),
            [](std::size_t) {});

  PramResult r;
  {
    obs::Span span("pram.unary");
    for (const auto& c : unary_) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_unary_parallel(net, m, c);
    }
  }
  {
    obs::Span span("pram.binary");
    for (std::size_t i = 0; !r.cancelled && i < binary_.size(); ++i) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_binary_parallel(net, m, binary_[i], i);
    }
  }

  // Consistency maintenance + filtering.
  int iters = 0;
  {
    obs::Span span("pram.filter");
    while (!r.cancelled &&
           (opt_.filter_iterations < 0 || iters < opt_.filter_iterations)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      if (parallel_consistency_step(net, m) == 0) break;
    }
    span.arg("iterations", iters);
    span.arg("time_steps", m.stats().time_steps);
  }
  r.consistency_iterations = iters;
  // Acceptance test: one CRCW AND over roles.
  r.accepted = !r.cancelled &&
               m.global_and(static_cast<std::size_t>(net.num_roles()),
                            [&](std::size_t role) {
                              return net.domain(static_cast<int>(role)).any();
                            });
  r.stats = m.stats();
  return r;
}

}  // namespace parsec::engine
