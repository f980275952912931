#include "cdg/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
  vids_.reserve(static_cast<std::size_t>(domain_size()));
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

bool Network::arc_allows(int ra, int rv_a, int rb, int rv_b) const {
  if (!arcs_built_) return ra != rb && alive(ra, rv_a) && alive(rb, rv_b);
  const int u = arena_.pair_index(ra, rv_a);
  const int v = arena_.pair_index(rb, rv_b);
  return u >= 0 && v >= 0 &&
         arena_.pairs().test(static_cast<std::size_t>(u),
                             static_cast<std::size_t>(v));
}

void Network::arc_forbid(int ra, int rv_a, int rb, int rv_b) {
  build_arcs();
  if (!arc_allows(ra, rv_a, rb, rv_b)) return;
  const auto u = static_cast<std::size_t>(arena_.pair_index(ra, rv_a));
  const auto v = static_cast<std::size_t>(arena_.pair_index(rb, rv_b));
  arena_.pairs().reset(u, v);
  arena_.pairs().reset(v, u);
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

void Network::begin_unary(const std::string& name) {
  current_kind_ = TraceEvent::Kind::UnaryElimination;
  // Assign in place (a conditional expression would materialize a
  // temporary string and put an allocation on the steady-state path).
  if (name.empty())
    current_cause_ = "unary constraint";
  else
    current_cause_.assign(name);
}

int Network::apply_unary(const Constraint& c) {
  assert(c.arity == 1);
  begin_unary(c.name);
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    // Collect first: eliminating while iterating the bitset is fine for
    // bits we've already passed, but collecting keeps the sweep order
    // explicit and matches the parallel semantics (all checks see the
    // same pre-sweep state for a single constraint).
    victims_.clear();
    kernels::propagate_unary(c.root, sentence_, indexer_, role_id_of(role),
                             word_of_role(role), domain(role), victims_,
                             &counters_.unary_evals);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

int Network::apply_binary(const Constraint& c) {
  assert(c.arity == 2);
  build_arcs();
  const int zeroed =
      kernels::sweep_binary(arena_, c, sentence_, indexer_, roles_per_word(),
                            &counters_.binary_evals);
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  return zeroed;
}

int Network::sweep_unary(const FactoredConstraint& c,
                         const kernels::MaskedCounters& sink) {
  assert(c.full.arity == 1);
  begin_unary(c.full.name);
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    victims_.clear();
    kernels::propagate_unary_masked(c, sentence_, indexer_, role_id_of(role),
                                    word_of_role(role), domain(role), victims_,
                                    sink);
    eliminated += eliminate_batch(role, victims_);
  }
  return eliminated;
}

int Network::apply_unary(const FactoredConstraint& c) {
  kernels::MaskedCounters mc;
  mc.evals = &counters_.unary_evals;
  mc.masked = &counters_.masked_unary_decided;
  mc.build_evals = &counters_.mask_build_evals;
  return sweep_unary(c, mc);
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

int Network::sweep_binary(const FactoredConstraint& c, std::size_t slot,
                          const kernels::MaskedCounters& sink,
                          bool apply_residual) {
  assert(c.full.arity == 2);
  build_arcs();
  ensure_masks(c, slot);
  if (gathered_slot_ != slot) {
    mask_cache_.gather(arena_, slot);
    gathered_slot_ = slot;
  }
  const int zeroed =
      kernels::sweep_binary_masked(arena_, c, sentence_, indexer_,
                                   roles_per_word(), sink, apply_residual);
  counters_.arc_zeroings += static_cast<std::size_t>(zeroed);
  return zeroed;
}

int Network::apply_binary(const FactoredConstraint& c, std::size_t slot,
                          bool apply_residual) {
  kernels::MaskedCounters mc;
  mc.evals = &counters_.binary_evals;
  mc.masked = &counters_.masked_binary_pairs;
  mc.tile_sweeps = &counters_.tile_sweeps;
  mc.lane_words = &counters_.simd_lane_words;
  return sweep_binary(c, slot, mc, apply_residual);
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
  const int vid = arena_.pair_index(role, rv);
  assert(vid >= 0);  // alive values are on the axis
  kernels::zero_rows_cols(arena_, std::span<const int>(&vid, 1));
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
  // victim is on the pair axis; values that were already dead are
  // skipped (their rows and columns are zero).
  vids_.clear();
  for (int rv : rvs) {
    const int vid = arena_.pair_index(role, rv);
    if (vid >= 0) vids_.push_back(vid);
  }
  kernels::zero_rows_cols(arena_, vids_);
  return killed;
}

bool Network::supported(int role, int rv) {
  build_arcs();
  ++counters_.support_checks;
  const int vid = arena_.pair_index(role, rv);
  return vid >= 0 &&
         kernels::supported(arena_, role, static_cast<std::size_t>(vid));
}

void Network::collect_unsupported(int role, util::ConstBitSpan sup) {
  victims_.clear();
  const std::size_t lo = arena_.block_begin(role);
  const std::span<const std::int32_t> axis = arena_.axis(role);
  for (std::size_t c = 0; c < axis.size(); ++c)
    if (!sup.test(lo + c) && alive(role, axis[c])) victims_.push_back(axis[c]);
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
  // Word-parallel sweep over the support vector of the whole pair axis.
  // Victims come out role by role in ascending rv order, and after a
  // role loses values its term of the vector is re-read, so later roles
  // see every elimination made before them (the cascade).
  const util::BitSpan sup = arena_.pair_scratch();
  kernels::support_all(arena_, sup);
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    counters_.support_checks += domain(role).count();
    collect_unsupported(role, sup);
    if (victims_.empty()) continue;
    eliminated += eliminate_batch(role, victims_);
    kernels::and_support_of(arena_, role, sup);
  }
  if (eliminated == 0) clean_sweep_at_ = muts;
  return eliminated;
}

int Network::synchronous_sweep(std::size_t* support_checks) {
  build_arcs();
  current_kind_ = TraceEvent::Kind::SupportElimination;
  current_cause_ = "consistency";
  const util::BitSpan sup = arena_.pair_scratch();
  kernels::support_all(arena_, sup);
  if (support_checks) *support_checks += total_alive();
  int eliminated = 0;
  const int R = num_roles();
  for (int role = 0; role < R; ++role) {
    collect_unsupported(role, sup);
    eliminated += eliminate_batch(role, victims_);
  }
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
  // Layout invariant: domain rows start on cache-line boundaries.
  for (int r = 0; r < R; ++r)
    if (reinterpret_cast<std::uintptr_t>(domain(r).words()) %
        NetworkArena::kRowAlignBytes)
      return false;
  if (!arcs_built_) return true;
  // Every alive value is on its role's (ascending) block of the axis.
  for (int r = 0; r < R; ++r) {
    const std::span<const std::int32_t> ax = arena_.axis(r);
    for (std::size_t c = 1; c < ax.size(); ++c)
      if (ax[c - 1] >= ax[c]) return false;
    bool on_axis = true;
    domain(r).for_each([&](std::size_t rv) {
      if (arena_.pair_index(r, static_cast<int>(rv)) < 0) on_axis = false;
    });
    if (!on_axis) return false;
  }
  // The pair matrix: symmetric, no same-role bit, bits only at
  // alive×alive positions, none past a row's last column.
  const util::ConstBitMatrixView m = arena_.pairs();
  const std::span<const std::int32_t> axis = arena_.pair_axis();
  const std::size_t V = m.rows();
  for (int r = 0; r < R; ++r) {
    const std::size_t lo = arena_.block_begin(r), hi = arena_.block_end(r);
    for (std::size_t u = lo; u < hi; ++u) {
      const std::size_t W = m.row_word_count();
      if (W && V % NetworkArena::kWordBits &&
          (m.row_words(u)[W - 1] >> (V % NetworkArena::kWordBits)))
        return false;
      const bool live = alive(r, axis[u]);
      bool bad = false;
      m.row_span(u).for_each([&](std::size_t v) {
        bad = bad || !live || (lo <= v && v < hi) || !m.test(v, u) ||
              !alive(arena_.role_of(v), axis[v]);
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
  // Each pair holds two bits of the symmetric matrix.
  if (arcs_built_) return arena_.pairs().count() / 2;
  const std::size_t alive = total_alive();
  std::size_t same_role = 0;
  for (int role = 0; role < num_roles(); ++role)
    same_role += domain(role).count() * domain(role).count();
  return (alive * alive - same_role) / 2;
}

std::string to_string(const Grammar& g, RoleValue rv) {
  std::string out = g.label_name(rv.label);
  out += '-';
  out += rv.mod == kNil ? "nil" : std::to_string(rv.mod);
  return out;
}

}  // namespace parsec::cdg
