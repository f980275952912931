#include "cdg/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "cdg/kernels.h"
#include "obs/trace.h"

namespace parsec::cdg {

namespace {

/// Most values each role can ever hold: n modifiees (nil and every other
/// word) for each label the role allows under the word's category, at
/// the most permissive category.  A function of (grammar, n) alone, so
/// every same-length sentence fits the same arena.
std::vector<int> axis_capacities(const Grammar& g, int n) {
  const int q = g.num_roles();
  std::vector<int> per_rid(static_cast<std::size_t>(q), 0);
  for (RoleId rid = 0; rid < q; ++rid)
    for (CatId cat = 0; cat < g.num_categories(); ++cat) {
      int labels = 0;
      for (LabelId l = 0; l < g.num_labels(); ++l)
        if (g.label_allowed(rid, cat, l)) ++labels;
      per_rid[rid] = std::max(per_rid[rid], labels * n);
    }
  std::vector<int> caps(static_cast<std::size_t>(n) * q);
  for (std::size_t r = 0; r < caps.size(); ++r) caps[r] = per_rid[r % q];
  return caps;
}

}  // namespace

Network::Network(const Grammar& g, const Sentence& s, Options opt)
    : grammar_(&g),
      sentence_(s),
      indexer_(s.size(), g.num_labels()),
      opt_(opt) {
  if (s.size() <= 0) throw std::invalid_argument("empty sentence");
  const std::size_t num_binary = g.binary_constraints().size();
  arena_.reshape(num_roles(), domain_size(),
                 kernels::MaskCache::kSlotsPerConstraint * num_binary,
                 axis_capacities(g, n()));
  mask_cache_.configure(num_binary);
  cids_.reserve(static_cast<std::size_t>(domain_size()));
  init_domains();
  if (opt_.prebuild_arcs) build_arcs();
}

void Network::init_domains() {
  const Grammar& g = *grammar_;
  const int R = num_roles();
  // Initial domains (paper §1.2, Fig. 1): every (label, modifiee) pair
  // such that the label is legal for the role (table T, refined by the
  // word's category) and the modifiee is not the word itself.
  for (int role = 0; role < R; ++role) {
    util::BitSpan d = arena_.domain(role);
    d.reset_all();
    const WordPos w = word_of_role(role);
    const RoleId rid = role_id_of(role);
    const CatId cat = sentence_.cat_at(w);
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      if (!g.label_allowed(rid, cat, l)) continue;
      // Label-major rv axis: label l's modifiees are one contiguous
      // run.  Set the whole run word-wise, then carve out m == w (no
      // word ever modifies itself).
      const auto lo =
          static_cast<std::size_t>(indexer_.encode(RoleValue{l, 0}));
      d.set_run(lo, lo + static_cast<std::size_t>(n()) + 1);
      d.reset(lo + static_cast<std::size_t>(w));
    }
  }
}

bool Network::reinit(const Sentence& s) {
  if (s.size() != n()) return false;
  sentence_ = s;
  counters_ = NetworkCounters{};
  trace_ = nullptr;
  current_kind_ = TraceEvent::Kind::SupportElimination;
  current_cause_ = "consistency";
  clean_sweep_at_ = kNoCleanSweep;
  arena_.reinit();
  arcs_built_ = false;
  gathered_slot_ = kNoSlot;
  init_domains();
  if (opt_.prebuild_arcs) build_arcs();
  return true;
}

std::vector<RoleValue> Network::alive_values(int role) const {
  std::vector<RoleValue> out;
  domain(role).for_each(
      [&](std::size_t rv) { out.push_back(indexer_.decode(static_cast<int>(rv))); });
  return out;
}

void Network::build_arcs() {
  if (arcs_built_) return;
  arena_.compact();
  arcs_built_ = true;
  gathered_slot_ = kNoSlot;
}

util::ConstBitMatrixView Network::arc_matrix(int ra, int rb) const {
  assert(arcs_built_);
  return arena_.arc(ra, rb);
}

bool Network::arc_allows(int ra, int rv_a, int rb, int rv_b) const {
  if (!arcs_built_) return alive(ra, rv_a) && alive(rb, rv_b);
  if (ra > rb) {
    std::swap(ra, rb);
    std::swap(rv_a, rv_b);
  }
  const int i = arena_.compact_id(ra, rv_a);
  const int j = arena_.compact_id(rb, rv_b);
  return i >= 0 && j >= 0 &&
         arena_.arc(ra, rb).test(static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(j));
}

void Network::arc_forbid(int ra, int rv_a, int rb, int rv_b) {
  build_arcs();
  if (ra > rb) {
    std::swap(ra, rb);
    std::swap(rv_a, rv_b);
  }
  const int i = arena_.compact_id(ra, rv_a);
  const int j = arena_.compact_id(rb, rv_b);
  const std::size_t t = arena_.arc_index(ra, rb);
  util::BitMatrixView m = arena_.arc(t);
  if (i >= 0 && j >= 0 &&
      m.test(static_cast<std::size_t>(i), static_cast<std::size_t>(j))) {
    m.reset(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    --arena_.arc_live(t);
  }
  ++counters_.arc_zeroings;
}

void Network::refresh_alive_cache() {
  const int R = num_roles();
  alive_off_.resize(static_cast<std::size_t>(R) + 1);
  alive_flat_.clear();
  for (int role = 0; role < R; ++role) {
    alive_off_[role] = alive_flat_.size();
    domain(role).for_each(
        [&](std::size_t rv) { alive_flat_.push_back(static_cast<int>(rv)); });
  }
  alive_off_[R] = alive_flat_.size();
}

int Network::apply_unary(const CompiledConstraint& c) {
  assert(c.arity == 1);
  current_kind_ = TraceEvent::Kind::UnaryElimination;
  // Assign in place (a conditional expression would materialize a
  // temporary string and put an allocation on the steady-state path).
  if (c.name.empty())
    current_cause_ = "unary constraint";
  else
    current_cause_.assign(c.name);
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    // Collect first: eliminating while iterating the bitset is fine for
    // bits we've already passed, but collecting keeps the sweep order
    // explicit and matches the parallel semantics (all checks see the
    // same pre-sweep state for a single constraint).
    victims_.clear();
    kernels::propagate_unary(c, sentence_, indexer_, role_id_of(role),
                             word_of_role(role), domain(role), victims_,
                             &counters_.unary_evals);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

int Network::apply_binary(const CompiledConstraint& c) {
  assert(c.arity == 2);
  build_arcs();
  int zeroed = 0;
  const std::size_t A = num_arcs();
  for (std::size_t t = 0; t < A; ++t)
    zeroed += kernels::sweep_binary(arena_, t, c, sentence_, indexer_,
                                    roles_per_word(),
                                    &counters_.binary_evals);
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  return zeroed;
}

int Network::apply_unary(const FactoredConstraint& c) {
  assert(c.arity == 1);
  current_kind_ = TraceEvent::Kind::UnaryElimination;
  if (c.name.empty())
    current_cause_ = "unary constraint";
  else
    current_cause_.assign(c.name);
  kernels::MaskedCounters mc;
  mc.vm_evals = &counters_.unary_evals;
  mc.masked = &counters_.masked_unary_decided;
  mc.build_evals = &counters_.mask_build_evals;
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    victims_.clear();
    kernels::propagate_unary_masked(c, sentence_, indexer_, role_id_of(role),
                                    word_of_role(role), domain(role), victims_,
                                    mc);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

void Network::ensure_masks(const FactoredConstraint& c, std::size_t slot) {
  if (mask_cache_.built(arena_, slot)) return;  // hit: no span, no work
  obs::Span span("cdg.mask_build");
  const std::size_t evals = mask_cache_.ensure(arena_, c, slot, sentence_,
                                               indexer_, roles_per_word());
  counters_.mask_build_evals += evals;
  span.arg("slot", static_cast<std::int64_t>(slot));
  span.arg("build_evals", evals);
}

void Network::prepare_binary(const FactoredConstraint& c, std::size_t slot) {
  build_arcs();
  ensure_masks(c, slot);
  if (gathered_slot_ == slot) return;
  mask_cache_.gather(arena_, slot);
  gathered_slot_ = slot;
}

int Network::sweep_arc(const FactoredConstraint& c, std::size_t arc,
                       const kernels::MaskedCounters& mc,
                       bool apply_residual) {
  return kernels::sweep_binary_masked(arena_, arc, c, sentence_, indexer_,
                                      roles_per_word(), mc, apply_residual);
}

int Network::apply_binary(const FactoredConstraint& c, std::size_t slot,
                          bool apply_residual) {
  assert(c.arity == 2);
  prepare_binary(c, slot);
  kernels::MaskedCounters mc;
  mc.vm_evals = &counters_.binary_evals;
  mc.masked = &counters_.masked_binary_pairs;
  mc.tile_sweeps = &counters_.tile_sweeps;
  mc.lane_words = &counters_.simd_lane_words;
  int zeroed = 0;
  const std::size_t A = num_arcs();
  for (std::size_t t = 0; t < A; ++t)
    zeroed += sweep_arc(c, t, mc, apply_residual);
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  return zeroed;
}

void Network::eliminate(int role, int rv) {
  util::BitSpan d = arena_.domain(role);
  if (!d.test(static_cast<std::size_t>(rv))) return;
  d.reset(static_cast<std::size_t>(rv));
  ++counters_.eliminations;
  if (trace_)
    trace_(TraceEvent{current_kind_, current_cause_, role,
                      indexer_.decode(rv)});
  if (!arcs_built_) return;
  const int cid = arena_.compact_id(role, rv);
  assert(cid >= 0);  // alive values are on the axis
  kernels::zero_rows_cols(arena_, role, std::span<const int>(&cid, 1));
}

int Network::eliminate_batch(int role, std::span<const int> rvs) {
  if (rvs.empty()) return 0;
  util::BitSpan d = arena_.domain(role);
  int killed = 0;
  for (int rv : rvs) {
    if (!d.test(static_cast<std::size_t>(rv))) continue;
    d.reset(static_cast<std::size_t>(rv));
    ++counters_.eliminations;
    ++killed;
    if (trace_)
      trace_(TraceEvent{current_kind_, current_cause_, role,
                        indexer_.decode(rv)});
  }
  if (!killed || !arcs_built_) return killed;
  // Every value alive now was alive when the arcs were built, so each
  // victim has a compact id; values that were already dead are skipped
  // (their rows and columns are zero).
  cids_.clear();
  for (int rv : rvs) {
    const int cid = arena_.compact_id(role, rv);
    if (cid >= 0) cids_.push_back(cid);
  }
  kernels::zero_rows_cols(arena_, role, cids_);
  return killed;
}

bool Network::supported(int role, int rv) {
  build_arcs();
  ++counters_.support_checks;
  const int cid = arena_.compact_id(role, rv);
  return cid >= 0 && kernels::supported(arena_, role, cid);
}

util::ConstBitSpan Network::support_mask(int role) {
  build_arcs();
  counters_.support_checks += domain(role).count();
  kernels::support_mask(arena_, role, arena_.support_scratch(role));
  return arena_.support_scratch(role);
}

int Network::consistency_step() {
  build_arcs();
  // Support can only be lost through eliminations or arc zeroings; if
  // neither counter moved since the last sweep that found nothing, this
  // sweep is provably a no-op.
  const std::uint64_t muts = counters_.eliminations + counters_.arc_zeroings;
  if (muts == clean_sweep_at_) return 0;
  current_kind_ = TraceEvent::Kind::SupportElimination;
  current_cause_ = "consistency";
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    // Word-parallel sweep: one support bitmask per role instead of one
    // row/column probe per value.  Victims (alive & ~supported) come out
    // in the same ascending order as the per-value formulation, and the
    // mask sees every elimination made for earlier roles, so cascading
    // behaviour within the sweep is unchanged.  (eliminate_batch reuses
    // the support scratch row — after the victims are extracted.)
    victims_.clear();
    const util::ConstBitSpan sup = support_mask(role);
    domain(role).for_each([&](std::size_t rv) {
      if (!sup.test(rv)) victims_.push_back(static_cast<int>(rv));
    });
    eliminated += eliminate_batch(role, victims_);
  }
  if (eliminated == 0) clean_sweep_at_ = muts;
  return eliminated;
}

int Network::filter(int max_iters) {
  int sweeps = 0;
  while (max_iters < 0 || sweeps < max_iters) {
    if (consistency_step() == 0) break;
    ++sweeps;
  }
  return sweeps;
}

bool Network::all_roles_nonempty() const {
  const int R = num_roles();
  for (int role = 0; role < R; ++role)
    if (domain(role).none()) return false;
  return true;
}

bool Network::check_invariants() const {
  const int R = num_roles();
  // Layout invariant: domain, mask and support-scratch rows start on
  // cache-line boundaries.
  auto aligned = [](const NetworkArena::Word* p) {
    return reinterpret_cast<std::uintptr_t>(p) %
               NetworkArena::kRowAlignBytes ==
           0;
  };
  for (int r = 0; r < R; ++r) {
    if (!aligned(domain(r).words())) return false;
    if (!aligned(arena_.support_scratch(r).words())) return false;
    for (std::size_t s = 0; s < arena_.mask_slots(); ++s)
      if (!aligned(arena_.mask(s, r).words())) return false;
  }
  if (!arcs_built_) return true;
  // Every alive value is on its role's (ascending) compact axis.
  for (int r = 0; r < R; ++r) {
    const std::span<const std::int32_t> ax = arena_.axis(r);
    for (std::size_t c = 1; c < ax.size(); ++c)
      if (ax[c - 1] >= ax[c]) return false;
    bool on_axis = true;
    domain(r).for_each([&](std::size_t rv) {
      if (arena_.compact_id(r, static_cast<int>(rv)) < 0) on_axis = false;
    });
    if (!on_axis) return false;
  }
  // Arc bits only at alive×alive positions (an eliminated value's row
  // and column are zero), and none past a row's last column.
  for (std::size_t t = 0; t < num_arcs(); ++t) {
    const auto [ra, rb] = arena_.arc_pair(t);
    const std::span<const std::int32_t> ax_a = arena_.axis(ra);
    const std::span<const std::int32_t> ax_b = arena_.axis(rb);
    const util::ConstBitMatrixView m = arena_.arc(t);
    if (m.count() != arena_.arc_live(t)) return false;
    const std::size_t cols = m.cols();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const std::size_t W = m.row_word_count();
      if (W && cols % NetworkArena::kWordBits &&
          (m.row_words(i)[W - 1] >> (cols % NetworkArena::kWordBits)))
        return false;
      if (!alive(ra, ax_a[i])) {
        if (m.row_any(i)) return false;
        continue;
      }
      bool bad = false;
      m.row_span(i).for_each([&](std::size_t j) {
        if (!alive(rb, ax_b[j])) bad = true;
      });
      if (bad) return false;
    }
  }
  return true;
}

std::size_t Network::total_alive() const {
  std::size_t total = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) total += domain(role).count();
  return total;
}

std::size_t Network::arc_ones() const {
  std::size_t total = 0;
  const std::size_t A = arena_.num_arcs();
  for (std::size_t t = 0; t < A; ++t) {
    if (arcs_built_) {
      total += arena_.arc(t).count();
    } else {
      const auto [ra, rb] = arena_.arc_pair(t);
      total += domain(ra).count() * domain(rb).count();
    }
  }
  return total;
}

std::string to_string(const Grammar& g, RoleValue rv) {
  std::string out = g.label_name(rv.label);
  out += '-';
  out += rv.mod == kNil ? "nil" : std::to_string(rv.mod);
  return out;
}

}  // namespace parsec::cdg
