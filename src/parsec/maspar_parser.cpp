#include "parsec/maspar_parser.h"

#include <bit>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cdg/kernels.h"
#include "obs/trace.h"
#include "resil/fault_plan.h"

namespace parsec::engine {

using cdg::Binding;
using cdg::EvalContext;
using cdg::FactoredConstraint;
using cdg::RoleValue;

MasparParse::MasparParse(const cdg::Grammar& g, const cdg::Sentence& s,
                         MasparOptions opt)
    : grammar_(&g),
      sentence_(s),
      layout_(g, s),
      machine_(layout_.vpes(), opt.physical_pes),
      opt_(opt),
      l_(layout_.labels_per_role()) {
  if (l_ > 8)
    throw std::invalid_argument(
        "MasPar kernel packs an l x l submatrix into 64 bits; grammars "
        "with more than 8 labels per role need a wider PE word");
  const int V = layout_.vpes();
  bits_.assign(static_cast<std::size_t>(V), 0);
  seg_arc_.resize(V);
  seg_slot_.resize(V);
  partner_.resize(V);
  active_.assign(static_cast<std::size_t>(V), 1);

  coords_.resize(V);
  // Each PE derives its coordinates and segment ids from its PE id
  // (design decision 2: no shared memory needed).
  machine_.simd(4, [&](int pe) {
    seg_arc_[pe] = layout_.seg_arc(pe);
    seg_slot_[pe] = layout_.seg_role_slot(pe);
    partner_[pe] = layout_.partner(pe);
    coords_[pe] = layout_.coord(pe);
  });
  // Role-value bindings per (role, mod slot), shared by every PE of the
  // slot (host-side cache of PE-local derivations).
  const int R = layout_.num_roles();
  const int M = layout_.mods_per_word();
  slot_bindings_.resize(static_cast<std::size_t>(R) * M);
  for (int a = 0; a < R; ++a) {
    const cdg::RoleId rid = layout_.role_id_of(a);
    const cdg::WordPos w = layout_.word_of_role(a);
    const auto& labs = layout_.labels_of(rid);
    for (int mx = 0; mx < M; ++mx) {
      auto& bind = slot_bindings_[static_cast<std::size_t>(a) * M + mx];
      const cdg::WordPos mod = layout_.mods_of_word(w)[mx];
      for (cdg::LabelId lab : labs)
        bind.push_back(Binding{RoleValue{lab, mod}, rid, w});
    }
  }
  // Disable self-arc PEs for the whole parse (Fig. 11).
  machine_.simd(1, [&](int pe) {
    if (layout_.diagonal(pe)) active_[pe] = 0;
  });
  machine_.push_enable(active_);

  // CN construction (Fig. 9): all-ones submatrices, restricted by the
  // table T and the words' lexical categories (which the ACU broadcast;
  // cost n scalar ops).
  machine_.acu(static_cast<std::uint64_t>(s.size()));
  machine_.simd(l_ * l_, [&](int pe) {
    const auto c = layout_.coord(pe);
    const cdg::RoleId ra = layout_.role_id_of(c.a);
    const cdg::RoleId rb = layout_.role_id_of(c.b);
    const cdg::CatId ca = sentence_.cat_at(layout_.word_of_role(c.a));
    const cdg::CatId cb = sentence_.cat_at(layout_.word_of_role(c.b));
    const auto& labs_a = layout_.labels_of(ra);
    const auto& labs_b = layout_.labels_of(rb);
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < labs_a.size(); ++i) {
      if (!g.label_allowed(ra, ca, labs_a[i])) continue;
      for (std::size_t j = 0; j < labs_b.size(); ++j) {
        if (!g.label_allowed(rb, cb, labs_b[j])) continue;
        w |= std::uint64_t{1} << (static_cast<int>(i) * l_ +
                                  static_cast<int>(j));
      }
    }
    bits_[pe] = w;
  });
}

void MasparParse::apply_unary(const FactoredConstraint& c) {
  // Every PE tests its l row role values and its l column role values
  // against the broadcast constraint, zeroing violating rows/columns of
  // its submatrix: 2*l evaluations + l*l potential bit clears.  The
  // guard reads only (role v)/(pos v), so one host evaluation per role
  // stands in for the lockstep test every PE of the role's slots would
  // make; failing roles are vacuously satisfied and skip the per-value
  // test entirely.
  const int R = layout_.num_roles();
  const int M = layout_.mods_per_word();
  std::vector<std::uint8_t> guard_pass(static_cast<std::size_t>(R), 1);
  if (!c.unary_guard.args.empty()) {
    for (int a = 0; a < R; ++a) {
      const Binding b{RoleValue{}, layout_.role_id_of(a),
                      layout_.word_of_role(a)};
      guard_pass[static_cast<std::size_t>(a)] =
          eval_hoisted(c.unary_guard, sentence_, b) ? 1 : 0;
    }
  }
  EvalContext ctx;
  ctx.sentence = &sentence_;
  machine_.acu(1);  // broadcast the constraint
  machine_.simd(2 * l_ + l_ * l_, [&](int pe) {
    const auto& co = coords_[pe];
    std::uint64_t w = bits_[pe];
    if (guard_pass[static_cast<std::size_t>(co.a)]) {
      const auto& row_bind =
          slot_bindings_[static_cast<std::size_t>(co.a) * M + co.mx];
      for (std::size_t i = 0; i < row_bind.size(); ++i) {
        ctx.x = row_bind[i];
        if (!holds(c.unary_rest, ctx))
          w = cdg::kernels::zero_packed_row(w, static_cast<int>(i), l_);
      }
    }
    if (guard_pass[static_cast<std::size_t>(co.b)]) {
      const auto& col_bind =
          slot_bindings_[static_cast<std::size_t>(co.b) * M + co.my];
      for (std::size_t j = 0; j < col_bind.size(); ++j) {
        ctx.x = col_bind[j];
        if (!holds(c.unary_rest, ctx))
          w = cdg::kernels::zero_packed_col(w, static_cast<int>(j), l_);
      }
    }
    bits_[pe] = w;
  });
}

void MasparParse::apply_binary(const FactoredConstraint& c) {
  EvalContext ctx;
  ctx.sentence = &sentence_;
  machine_.acu(1);  // broadcast the constraint
  const int R = layout_.num_roles();
  const int M = layout_.mods_per_word();
  const std::size_t S = static_cast<std::size_t>(R) * M;
  // Hoisted-part truth bits per (role, mod slot, label slot), expanded
  // into packed l*l row masks (value as the row side) and column masks
  // (value as the column side): the MasPar counterpart of the word-
  // level MaskCache.
  const cdg::Expr* parts[4] = {&c.ante_x, &c.ante_y, &c.cons_x, &c.cons_y};
  std::vector<std::uint64_t> rowm[4], colm[4];
  for (auto& v : rowm) v.assign(S, 0);
  for (auto& v : colm) v.assign(S, 0);
  for (std::size_t s = 0; s < S; ++s) {
    const auto& bind = slot_bindings_[s];
    for (std::size_t i = 0; i < bind.size(); ++i) {
      for (int p = 0; p < 4; ++p) {
        if (eval_hoisted(*parts[p], sentence_, bind[i])) {
          rowm[p][s] |= cdg::kernels::packed_row_mask(static_cast<int>(i), l_);
          colm[p][s] |= cdg::kernels::packed_col_mask(static_cast<int>(i), l_);
        }
      }
    }
  }
  const std::uint64_t full_bits =
      l_ * l_ >= 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << (l_ * l_)) - 1;
  // 2*l*l evaluations per PE (both variable assignments per element) —
  // the abstract machine's charge, independent of how many elements the
  // masks decide host-side.
  machine_.simd(2 * l_ * l_, [&](int pe) {
    std::uint64_t w = bits_[pe];
    if (!w) return;
    // One live PE submatrix word = one packed tile sweep, the l*l
    // counterpart of the host kernels' row tiles (folded into
    // NetworkCounters by run_backend).
    ++tile_sweeps_;
    ++lane_words_;
    const auto& co = coords_[pe];
    const std::size_t sr = static_cast<std::size_t>(co.a) * M + co.mx;
    const std::size_t sc = static_cast<std::size_t>(co.b) * M + co.my;
    const std::uint64_t AXR = rowm[0][sr], AYR = rowm[1][sr];
    const std::uint64_t CXR = rowm[2][sr], CYR = rowm[3][sr];
    const std::uint64_t AXC = colm[0][sc], AYC = colm[1][sc];
    const std::uint64_t CXC = colm[2][sc], CYC = colm[3][sc];
    // Same three-valued decision as kernels::sweep_binary_masked, per
    // packed element (i, j).  Direction 1 binds x to the row value.
    const std::uint64_t keep1 =
        ~AXR | ~AYC | (c.cons_residual ? 0 : (CXR & CYC));
    const std::uint64_t kill1 =
        c.ante_residual ? 0 : (AXR & AYC & (~CXR | ~CYC));
    // Direction 2 binds x to the column value.
    const std::uint64_t keep2 =
        ~AXC | ~AYR | (c.cons_residual ? 0 : (CXC & CYR));
    const std::uint64_t kill2 =
        c.ante_residual ? 0 : (AXC & AYR & (~CXC | ~CYR));
    const std::uint64_t kill = (kill1 | kill2) & full_bits;
    const std::uint64_t keep = keep1 & keep2;
    std::uint64_t undecided = w & ~kill & ~keep;
    w &= ~kill;
    const auto& row_bind = slot_bindings_[sr];
    const auto& col_bind = slot_bindings_[sc];
    while (undecided) {
      const int bit = std::countr_zero(undecided);
      undecided &= undecided - 1;
      const std::size_t i = static_cast<std::size_t>(bit / l_);
      const std::size_t j = static_cast<std::size_t>(bit % l_);
      ctx.x = row_bind[i];
      ctx.y = col_bind[j];
      bool ok = eval_constraint(c.full, ctx);
      if (ok) {
        std::swap(ctx.x, ctx.y);
        ok = eval_constraint(c.full, ctx);
      }
      if (!ok) w &= ~(std::uint64_t{1} << bit);
    }
    bits_[pe] = w;
  });
}

bool MasparParse::consistency_iteration() {
  const int V = layout_.vpes();
  // Support bits per label slot, gathered across the l scan passes
  // (Fig. 13: "the functions must be repeated [l] times, once for each
  // of the labels allowed in the role").
  std::vector<std::vector<std::uint8_t>> support(
      static_cast<std::size_t>(l_));
  std::vector<std::vector<std::uint8_t>> col_support(
      static_cast<std::size_t>(l_));

  for (int lab = 0; lab < l_; ++lab) {
    // Local OR of submatrix row `lab` (l bit tests).
    std::vector<std::uint8_t> row_or(static_cast<std::size_t>(V), 0);
    machine_.simd(l_, [&](int pe) {
      row_or[pe] =
          (bits_[pe] & cdg::kernels::packed_row_mask(lab, l_)) ? 1 : 0;
    });
    // Arc OR via scanOr over the (a, mx, b) segment (Fig. 12 upper).
    std::vector<std::uint8_t> arc_or = machine_.seg_or(row_or, seg_arc_);
    // Support via scanAnd over the (a, mx) role slot (Fig. 12 lower);
    // self-arc PEs are disabled and therefore transparent.
    support[lab] = machine_.seg_and(arc_or, seg_slot_);
    // Column-side support from the transposed partner PE (router).
    col_support[lab] = machine_.gather(support[lab], partner_);
  }

  // Zero rows/columns of dead role values and report whether anything
  // changed (global scanOr read back by the ACU).
  std::vector<std::uint8_t> changed(static_cast<std::size_t>(V), 0);
  machine_.simd(2 * l_ * l_, [&](int pe) {
    std::uint64_t w = bits_[pe];
    const std::uint64_t before = w;
    for (int lab = 0; lab < l_; ++lab) {
      if (!support[lab][pe]) w = cdg::kernels::zero_packed_row(w, lab, l_);
      if (!col_support[lab][pe]) w = cdg::kernels::zero_packed_col(w, lab, l_);
    }
    bits_[pe] = w;
    changed[pe] = (w != before) ? 1 : 0;
  });
  std::vector<int> whole_array(static_cast<std::size_t>(V), 0);
  std::vector<std::uint8_t> any = machine_.seg_or(changed, whole_array);
  machine_.acu(1);  // ACU reads the flag
  for (int pe = 0; pe < V; ++pe)
    if (machine_.is_enabled(pe)) return any[pe] != 0;
  return false;
}

MasparResult MasparParse::run(const std::vector<FactoredConstraint>& unary,
                              const std::vector<FactoredConstraint>& binary,
                              const cdg::CancelFn& cancel) {
  MasparResult r;
  {
    obs::Span span("maspar.unary");
    const maspar::MachineStats before = machine_.stats();
    for (const auto& c : unary) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_unary(c);
    }
    if (span.active())
      span.arg("plural_ops", machine_.stats().plural_ops - before.plural_ops);
  }
  {
    obs::Span span("maspar.binary");
    const maspar::MachineStats before = machine_.stats();
    for (const auto& c : binary) {
      if (r.cancelled) break;
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      apply_binary(c);
    }
    if (span.active())
      span.arg("plural_ops", machine_.stats().plural_ops - before.plural_ops);
  }
  int iters = 0;
  {
    obs::Span span("maspar.filter");
    const maspar::MachineStats before = machine_.stats();
    while (!r.cancelled &&
           (opt_.filter_iterations < 0 || iters < opt_.filter_iterations)) {
      if (resil::checkpoint(cancel)) {
        r.cancelled = true;
        break;
      }
      ++iters;
      if (!consistency_iteration()) break;
    }
    if (span.active()) {
      const maspar::MachineStats after = machine_.stats();
      span.arg("iterations", iters);
      span.arg("plural_ops", after.plural_ops - before.plural_ops);
      span.arg("scan_ops", after.scan_ops - before.scan_ops);
      span.arg("route_ops", after.route_ops - before.route_ops);
    }
  }
  r.consistency_iterations = iters;
  r.accepted = !r.cancelled && accepted();
  r.vpes = layout_.vpes();
  r.virt_factor = machine_.virt_factor();
  r.stats = machine_.stats();
  r.tile_sweeps = tile_sweeps_;
  r.lane_words = lane_words_;
  r.simulated_seconds = maspar::CostModel::mp1().seconds(machine_);
  return r;
}

bool MasparParse::supported(int role, RoleValue rv) const {
  const int ms = layout_.mod_slot(layout_.word_of_role(role), rv.mod);
  const int ls = layout_.label_slot(layout_.role_id_of(role), rv.label);
  if (ms < 0 || ls < 0) return false;
  const int R = layout_.num_roles();
  bool all = true;
  for (int b = 0; b < R && all; ++b) {
    if (b == role) continue;
    bool arc_ok = false;
    for (int my = 0; my < layout_.mods_per_word() && !arc_ok; ++my) {
      const std::uint64_t w =
          bits_[static_cast<std::size_t>(layout_.vpe(role, ms, b, my))];
      if (w & cdg::kernels::packed_row_mask(ls, l_)) arc_ok = true;
    }
    if (!arc_ok) all = false;
  }
  return all;
}

std::vector<util::DynBitset> MasparParse::domains() const {
  const int R = layout_.num_roles();
  const cdg::RvIndexer idx(layout_.n(), grammar_->num_labels());
  std::vector<util::DynBitset> out(
      static_cast<std::size_t>(R),
      util::DynBitset(static_cast<std::size_t>(idx.domain_size())));
  for (int role = 0; role < R; ++role) {
    const cdg::RoleId rid = layout_.role_id_of(role);
    const cdg::WordPos w = layout_.word_of_role(role);
    for (cdg::LabelId lab : layout_.labels_of(rid)) {
      for (cdg::WordPos m : layout_.mods_of_word(w)) {
        if (supported(role, RoleValue{lab, m}))
          out[role].set(static_cast<std::size_t>(
              idx.encode(RoleValue{lab, m})));
      }
    }
  }
  return out;
}

bool MasparParse::arc_entry(int role_a, RoleValue a, int role_b,
                            RoleValue b) const {
  const int ms = layout_.mod_slot(layout_.word_of_role(role_a), a.mod);
  const int my = layout_.mod_slot(layout_.word_of_role(role_b), b.mod);
  const int li = layout_.label_slot(layout_.role_id_of(role_a), a.label);
  const int lj = layout_.label_slot(layout_.role_id_of(role_b), b.label);
  if (ms < 0 || my < 0 || li < 0 || lj < 0 || role_a == role_b) return false;
  const std::uint64_t w =
      bits_[static_cast<std::size_t>(layout_.vpe(role_a, ms, role_b, my))];
  return cdg::kernels::packed_test(w, li, lj, l_);
}

bool MasparParse::accepted() const {
  const int R = layout_.num_roles();
  for (int role = 0; role < R; ++role) {
    bool nonempty = false;
    const cdg::RoleId rid = layout_.role_id_of(role);
    const cdg::WordPos w = layout_.word_of_role(role);
    for (cdg::LabelId lab : layout_.labels_of(rid)) {
      for (cdg::WordPos m : layout_.mods_of_word(w)) {
        if (supported(role, RoleValue{lab, m})) {
          nonempty = true;
          break;
        }
      }
      if (nonempty) break;
    }
    if (!nonempty) return false;
  }
  return true;
}

MasparParser::MasparParser(const cdg::Grammar& g, MasparOptions opt)
    : grammar_(&g),
      opt_(opt),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {}

MasparResult MasparParser::parse(const cdg::Sentence& s) const {
  std::unique_ptr<MasparParse> scratch;
  return parse(s, scratch);
}

MasparResult MasparParser::parse(const cdg::Sentence& s,
                                 std::unique_ptr<MasparParse>& out,
                                 const cdg::CancelFn& cancel) const {
  out = std::make_unique<MasparParse>(*grammar_, s, opt_);
  return out->run(unary_, binary_, cancel);
}

}  // namespace parsec::engine
