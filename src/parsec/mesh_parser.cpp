#include "parsec/mesh_parser.h"

#include <algorithm>
#include <cmath>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"
#include "topo/reduction.h"

namespace parsec::engine {

using cdg::FactoredConstraint;
using cdg::Network;

const char* to_string(Topology t) {
  switch (t) {
    case Topology::CrcwPram: return "CRCW P-RAM";
    case Topology::Mesh2D: return "2D Mesh";
    case Topology::CellularAutomaton2D: return "2D Cellular Automata";
    case Topology::TreeHypercube: return "Tree and Hypercube";
  }
  return "?";
}

TopologyParser::TopologyParser(const cdg::Grammar& g, Topology topo,
                               int filter_iterations)
    : grammar_(&g),
      topo_(topo),
      filter_iterations_(filter_iterations),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

std::size_t TopologyParser::pes_for(int n) const {
  const std::size_t q = static_cast<std::size_t>(grammar_->num_roles());
  const std::size_t n4 = static_cast<std::size_t>(n) * n * n * n;
  switch (topo_) {
    case Topology::CrcwPram:
      return q * q * n4;
    case Topology::Mesh2D:
    case Topology::CellularAutomaton2D:
      return static_cast<std::size_t>(n) * n;
    case Topology::TreeHypercube: {
      const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(q * q * n4) / logn));
    }
  }
  return 1;
}

std::uint64_t TopologyParser::elementwise_cost(std::size_t items,
                                               std::size_t pes) const {
  return (items + pes - 1) / pes;
}

std::uint64_t TopologyParser::reduction_cost(std::size_t pes) const {
  switch (topo_) {
    case Topology::CrcwPram:
      return 1;  // concurrent-write OR/AND
    case Topology::Mesh2D:
    case Topology::CellularAutomaton2D:
      return topo::mesh_reduce_steps(pes);
    case Topology::TreeHypercube:
      return topo::hypercube_reduce_steps(pes);
  }
  return 1;
}

TopoResult TopologyParser::parse(Network& net,
                                 const cdg::CancelFn& cancel) const {
  TopoResult r;
  const std::size_t P = pes_for(net.n());
  r.pes = P;
  const std::size_t R = static_cast<std::size_t>(net.num_roles());
  const std::size_t D = static_cast<std::size_t>(net.domain_size());
  const std::size_t arc_elems = R * (R - 1) / 2 * D * D;

  auto charge_elem = [&](std::size_t items) {
    const std::uint64_t c = elementwise_cost(items, P);
    r.elementwise_steps += c;
    r.time_steps += c;
  };
  auto charge_reduce = [&]() {
    const std::uint64_t c = reduction_cost(P);
    r.reduction_steps += c;
    r.time_steps += c;
  };

  // CN construction: one elementwise pass over role values + arcs.
  charge_elem(R * D);
  charge_elem(arc_elems);

  // Unary constraints: one elementwise pass over role values each,
  // plus the zeroing pass for eliminated values.  Evaluation runs
  // host-side through the masked unary kernel; the charges model the
  // abstract machine, not the host shortcut.
  {
    obs::Span span("mesh.unary");
    const std::uint64_t steps_before = r.time_steps;
    for (const auto& c : unary_) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      charge_elem(R * D);
      charge_elem(arc_elems / std::max<std::size_t>(1, D));  // zeroing rows
      net.sweep_unary(c, cdg::kernels::MaskedCounters{});
    }
    span.arg("time_steps", r.time_steps - steps_before);
  }

  // Binary constraints: one elementwise pass over arc elements each.
  {
    obs::Span span("mesh.binary");
    const std::uint64_t steps_before = r.time_steps;
    for (std::size_t ci = 0; !r.cancelled && ci < binary_.size(); ++ci) {
      const auto& c = binary_[ci];
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      charge_elem(arc_elems);
      // Sweep accounting only: mesh cost stays with charge_elem, but the
      // host-side sweeps are pinned per backend by the gate.
      cdg::kernels::MaskedCounters mc;
      mc.tile_sweeps = &net.counters().tile_sweeps;
      mc.lane_words = &net.counters().simd_lane_words;
      net.sweep_binary(c, ci, mc);
    }
    span.arg("time_steps", r.time_steps - steps_before);
  }

  // Consistency maintenance + filtering: per iteration, one reduction
  // phase (the row ORs + role AND) and one elementwise zeroing pass.
  int iters = 0;
  {
    obs::Span span("mesh.filter");
    const std::uint64_t steps_before = r.time_steps;
    const std::uint64_t reductions_before = r.reduction_steps;
    while (!r.cancelled &&
           (filter_iterations_ < 0 || iters < filter_iterations_)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      charge_elem(arc_elems);
      charge_reduce();
      charge_elem(arc_elems);
      // Pre-state support semantics, as on the real machines.
      if (net.synchronous_sweep(&net.counters().support_checks) == 0) break;
    }
    span.arg("iterations", iters);
    span.arg("time_steps", r.time_steps - steps_before);
    span.arg("reduction_steps", r.reduction_steps - reductions_before);
  }
  r.consistency_iterations = iters;
  charge_reduce();  // acceptance AND over roles
  r.accepted = !r.cancelled && net.all_roles_nonempty();
  return r;
}

}  // namespace parsec::engine
