#include "cdg/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cdg/kernels.h"
#include "obs/trace.h"

namespace parsec::cdg {

namespace {

constexpr std::size_t kStageWords = 2048;
/// Rows staged per vector phase of the batched sweep.
constexpr std::size_t kMaxSweepTileRows = 64;

}  // namespace

BatchParser::BatchParser(const Grammar& g, NetworkOptions opt)
    : grammar_(&g),
      opt_(opt),
      unary_(factor_all(g.unary_constraints())),
      binary_(factor_all(g.binary_constraints())) {
  // The pooled lane networks only supply domains, unary propagation
  // and truth masks; gather() synthesizes the interleaved arc rows
  // from the post-unary domains, so the per-network arc matrices are
  // never read.  Forcing prebuild_arcs off keeps construction and every
  // reinit from building them.
  opt_.prebuild_arcs = false;
}

void BatchParser::gather(std::span<Network> nets) {
  obs::Span span("batch.gather");
  const std::size_t B = nets.size();
  // Interleave word wi of lane b at batched index wi*kLanes + b.
  // Unfilled lanes are written as zero in the same pass (a zero row is
  // a no-op in every kernel), so no buffer-wide clear is needed.
  for (int role = 0; role < R_; ++role) {
    Word* d = dom_row(role);
    for (std::size_t b = 0; b < B; ++b) {
      const Word* s = nets[b].domain(role).words();
      for (std::size_t wi = 0; wi < W_; ++wi) d[wi * kLanes + b] = s[wi];
    }
    for (std::size_t b = B; b < kLanes; ++b)
      for (std::size_t wi = 0; wi < W_; ++wi) d[wi * kLanes + b] = 0;
    Word* ud = udom_row(role);
    for (std::size_t wi = 0; wi < W_; ++wi) {
      Word u = 0;
      for (std::size_t b = 0; b < kLanes; ++b) u |= d[wi * kLanes + b];
      ud[wi] = u;
    }
  }
  for (std::size_t slot = 0; slot < binary_.size(); ++slot) {
    for (int role = 0; role < R_; ++role) {
      for (std::size_t b = 0; b < B; ++b) {
        const kernels::FactoredMasks m = nets[b].masks(slot, role);
        const Word* parts[4] = {m.ante_x.words(), m.ante_y.words(),
                                m.cons_x.words(), m.cons_y.words()};
        for (int p = 0; p < 4; ++p) {
          Word* d = mask_row(slot, role, p);
          for (std::size_t wi = 0; wi < W_; ++wi)
            d[wi * kLanes + b] = parts[p][wi];
        }
      }
      for (std::size_t b = B; b < kLanes; ++b)
        for (int p = 0; p < 4; ++p) {
          Word* d = mask_row(slot, role, p);
          for (std::size_t wi = 0; wi < W_; ++wi) d[wi * kLanes + b] = 0;
        }
    }
  }
  // Arc synthesis without per-lane matrices: the initial
  // arc row i of (ra, rb) is the partner's domain masked by lane i's
  // aliveness, so the interleaved rows come straight from the already
  // interleaved domains.  Rows dead in every lane are skipped AND never
  // read (every kernel tests union-aliveness against the current
  // domains, which only shrink), so stale words left by a previous
  // same-shape batch are harmless.
  for (std::size_t t = 0; t < num_arcs_; ++t) {
    const auto [ra, rb] = arc_pairs_[t];
    const Word* da = dom_row(ra);
    const Word* db = dom_row(rb);
    const Word* ud = udom_row(ra);
    for (std::size_t i = 0; i < D_; ++i) {
      if (!union_alive(ud, i)) continue;
      const std::size_t g = (i / NetworkArena::kWordBits) * kLanes;
      const Word bit = Word{1} << (i % NetworkArena::kWordBits);
      Word lane_mask[kLanes];
      for (std::size_t b = 0; b < kLanes; ++b)
        lane_mask[b] = (da[g + b] & bit) ? ~Word{0} : Word{0};
      Word* r = arc_row(t, i);
      for (std::size_t wi = 0; wi < W_; ++wi)
        for (std::size_t b = 0; b < kLanes; ++b)
          r[wi * kLanes + b] = db[wi * kLanes + b] & lane_mask[b];
    }
  }
  span.arg("lanes", static_cast<std::int64_t>(B));
  span.arg("words",
           static_cast<std::int64_t>(dom_.size() + arcs_.size() +
                                     masks_.size()));
}

void BatchParser::sweep_constraint(std::span<Network> nets, std::size_t slot,
                                   std::size_t filled) {
  const FactoredConstraint& c = binary_[slot];
  const simd::Ops& ops = simd::ops();
  const RvIndexer& ix = nets[0].indexer();

  // Two-phase row tiles of row width sW_ (kLanes words per 64-value
  // word group): one dispatched vector pass stages every undecided
  // word of the tile, then one residual pass drains them.
  Word stage[kStageWords];
  Word consts[kMaxSweepTileRows][8][kLanes];
  std::size_t rows_idx[kMaxSweepTileRows];
  bool rows_und[kMaxSweepTileRows];
  const std::size_t tile_cap =
      std::max<std::size_t>(1, std::min(kMaxSweepTileRows,
                                        sW_ ? kStageWords / sW_ : 1));

  EvalContext ctx;
  for (std::size_t t = 0; t < num_arcs_; ++t) {
    const auto [ra, rb] = arc_pairs_[t];
    const RoleId rida = nets[0].role_id_of(ra);
    const RoleId ridb = nets[0].role_id_of(rb);
    const WordPos wa = nets[0].word_of_role(ra);
    const WordPos wb = nets[0].word_of_role(rb);
    const Word* AX = mask_row(slot, rb, 0);
    const Word* AY = mask_row(slot, rb, 1);
    const Word* CX = mask_row(slot, rb, 2);
    const Word* CY = mask_row(slot, rb, 3);
    const Word* ud = udom_row(ra);
    // Row-side mask rows of ra (interleaved): the per-row broadcast
    // constants are read straight from the gathered mask words instead
    // of re-testing each lane's per-network mask bits.
    const Word* MAX = mask_row(slot, ra, 0);
    const Word* MAY = mask_row(slot, ra, 1);
    const Word* MCX = mask_row(slot, ra, 2);
    const Word* MCY = mask_row(slot, ra, 3);

    std::size_t i = 0;
    while (i < D_) {
      // Gather a tile of rows alive in at least one lane.
      std::size_t nrows = 0;
      for (; i < D_ && nrows < tile_cap; ++i) {
        if (!union_alive(ud, i)) continue;
        const std::size_t g = (i / NetworkArena::kWordBits) * kLanes;
        const std::size_t sh = i % NetworkArena::kWordBits;
        rows_idx[nrows] = i;
        for (std::size_t b = 0; b < filled; ++b) {
          const bool ax = (MAX[g + b] >> sh) & Word{1};
          const bool ay = (MAY[g + b] >> sh) & Word{1};
          const bool cx = (MCX[g + b] >> sh) & Word{1};
          const bool cy = (MCY[g + b] >> sh) & Word{1};
          Word* k = &consts[nrows][0][b];
          k[0 * kLanes] = ax ? Word{0} : ~Word{0};
          k[1 * kLanes] = (cx && !c.cons_residual) ? ~Word{0} : Word{0};
          k[2 * kLanes] = (ax && !c.ante_residual) ? ~Word{0} : Word{0};
          k[3 * kLanes] = cx ? Word{0} : ~Word{0};
          k[4 * kLanes] = ay ? Word{0} : ~Word{0};
          k[5 * kLanes] = (cy && !c.cons_residual) ? ~Word{0} : Word{0};
          k[6 * kLanes] = (ay && !c.ante_residual) ? ~Word{0} : Word{0};
          k[7 * kLanes] = cy ? Word{0} : ~Word{0};
        }
        // Unfilled lanes: the row words are zero, any constants do.
        for (std::size_t b = filled; b < kLanes; ++b)
          for (int p = 0; p < 8; ++p) consts[nrows][p][b] = 0;
        ++nrows;
      }
      if (!nrows) continue;
      // Vector phase across all lanes at once.
      bool tile_und = false;
      for (std::size_t r = 0; r < nrows; ++r) {
        const simd::SweepConsts kc{consts[r][0], consts[r][1], consts[r][2],
                                   consts[r][3], consts[r][4], consts[r][5],
                                   consts[r][6], consts[r][7]};
        simd::SweepStats st;
        ops.sweep_row(arc_row(t, rows_idx[r]), AX, AY, CX, CY, kc, kLanes,
                      sW_, stage + r * sW_, &st);
        for (std::size_t b = 0; b < filled; ++b) {
          lane_counters_[b].masked_binary_pairs += st.masked[b];
          lane_counters_[b].arc_zeroings += st.dead[b];
          lane_counters_[b].simd_lane_words += W_;
        }
        rows_und[r] = st.any_undecided;
        tile_und |= st.any_undecided;
      }
      for (std::size_t b = 0; b < filled; ++b)
        ++lane_counters_[b].tile_sweeps;
      // Residual phase: lane = word index mod kLanes picks the sentence.
      if (!tile_und) continue;
      for (std::size_t r = 0; r < nrows; ++r) {
        if (!rows_und[r]) continue;
        const std::size_t ri = rows_idx[r];
        Word* row = arc_row(t, ri);
        const Binding bind_a{ix.decode(static_cast<int>(ri)), rida, wa};
        for (std::size_t wt = 0; wt < sW_; ++wt) {
          Word u = stage[r * sW_ + wt];
          if (!u) continue;
          const std::size_t b = wt % kLanes;
          const std::size_t wi = wt / kLanes;
          assert(b < filled);
          ctx.sentence = sents_[b];
          while (u) {
            const std::size_t bit =
                static_cast<std::size_t>(std::countr_zero(u));
            u &= u - 1;
            const std::size_t j = wi * NetworkArena::kWordBits + bit;
            lane_counters_[b].binary_evals += 2;
            ctx.x = bind_a;
            ctx.y = Binding{ix.decode(static_cast<int>(j)), ridb, wb};
            bool ok = eval_constraint(c.full, ctx);
            if (ok) {
              std::swap(ctx.x, ctx.y);
              ok = eval_constraint(c.full, ctx);
            }
            if (!ok) {
              row[wt] &= ~(Word{1} << bit);
              ++lane_counters_[b].arc_zeroings;
            }
          }
        }
      }
    }
  }
}

void BatchParser::eliminate(int role, std::size_t lane, std::size_t rv) {
  const std::size_t wi0 = rv / NetworkArena::kWordBits;
  const std::size_t g = wi0 * kLanes + lane;
  const Word bit = Word{1} << (rv % NetworkArena::kWordBits);
  Word* d = dom_row(role);
  d[g] &= ~bit;
  {
    // Keep the union row current (cheap: re-OR one word group).
    Word u = 0;
    for (std::size_t b = 0; b < kLanes; ++b) u |= d[wi0 * kLanes + b];
    udom_row(role)[wi0] = u;
  }
  ++lane_counters_[lane].eliminations;
  for (int other = 0; other < R_; ++other) {
    if (other == role) continue;
    if (role < other) {
      // Row side: zero this lane's words of row rv.
      Word* r = arc_row(arc_index(role, other), rv);
      for (std::size_t wi = 0; wi < W_; ++wi) r[wi * kLanes + lane] = 0;
    } else {
      // Column side: clear bit rv of this lane in every union-alive row
      // of the partner (dead rows are already zero there).
      const std::size_t t = arc_index(other, role);
      const Word* ud = udom_row(other);
      for (std::size_t i = 0; i < D_; ++i) {
        if (!union_alive(ud, i)) continue;
        arc_row(t, i)[g] &= ~bit;
      }
    }
  }
}

int BatchParser::consistency_step(std::size_t filled) {
  // Same provable-no-op shortcut as Network::consistency_step: support
  // can only be lost through eliminations or arc zeroings, so if
  // neither counter moved since the last sweep that found nothing,
  // this sweep cannot either.
  std::uint64_t muts = 0;
  for (std::size_t b = 0; b < filled; ++b)
    muts += lane_counters_[b].eliminations + lane_counters_[b].arc_zeroings;
  if (muts == clean_sweep_at_) return 0;
  const simd::Ops& ops = simd::ops();
  std::vector<Word>& acc = vm_;  // scratch reuse: one interleaved row
  int eliminated = 0;
  // Serial-equivalent charge: one support probe per alive value.
  for (int role = 0; role < R_; ++role) {
    const Word* d = dom_row(role);
    for (std::size_t b = 0; b < filled; ++b) {
      std::size_t alive = 0;
      for (std::size_t wi = 0; wi < W_; ++wi)
        alive += static_cast<std::size_t>(
            std::popcount(d[wi * kLanes + b]));
      lane_counters_[b].support_checks += alive;
    }
    std::copy(d, d + sW_, sup_row(role));
  }
  // Fused support pass: every arc matrix is traversed ONCE.  A row i of
  // (ra, rb) supplies both sides of the pair — its per-lane word OR is
  // ra's row-side support of value i, and the same words OR into the
  // accumulator that becomes rb's column-side support — so the arc
  // traffic is half of the naive per-ordered-pair scan.
  for (std::size_t t = 0; t < num_arcs_; ++t) {
    const auto [ra, rb] = arc_pairs_[t];
    const Word* ud = udom_row(ra);
    Word* supa = sup_row(ra);
    std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(sW_),
              Word{0});
    for (std::size_t i = 0; i < D_; ++i) {
      if (!union_alive(ud, i)) continue;
      const Word* r = arc_row(t, i);
      Word any[kLanes] = {};
      for (std::size_t wi = 0; wi < W_; ++wi)
        for (std::size_t b = 0; b < kLanes; ++b) {
          const Word w = r[wi * kLanes + b];
          any[b] |= w;
          acc[wi * kLanes + b] |= w;
        }
      const std::size_t g = (i / NetworkArena::kWordBits) * kLanes;
      const Word bit = Word{1} << (i % NetworkArena::kWordBits);
      for (std::size_t b = 0; b < kLanes; ++b)
        if (!any[b]) supa[g + b] &= ~bit;
    }
    ops.and_into(sup_row(rb), acc.data(), sW_);
  }
  // Victims, per role.  Unlike the serial sweep's per-role cascade the
  // supports above are a snapshot, so a value whose last support dies
  // in this pass survives until the next one — the fixpoint is the
  // same (confluence), the passes are just individually cheaper.
  for (int role = 0; role < R_; ++role) {
    const Word* d = dom_row(role);
    const Word* sup = sup_row(role);
    for (std::size_t wt = 0; wt < sW_; ++wt) {
      Word v = d[wt] & ~sup[wt];
      if (!v) continue;
      const std::size_t lane = wt % kLanes;
      const std::size_t wi = wt / kLanes;
      while (v) {
        const std::size_t bit =
            static_cast<std::size_t>(std::countr_zero(v));
        v &= v - 1;
        eliminate(role, lane, wi * NetworkArena::kWordBits + bit);
        ++eliminated;
      }
    }
  }
  if (eliminated == 0) clean_sweep_at_ = muts;
  return eliminated;
}

std::vector<BatchLaneResult> BatchParser::parse(
    std::span<const Sentence> sentences) {
  assert(!sentences.empty() && sentences.size() <= kLanes);
  const std::size_t B = sentences.size();
  for (std::size_t b = 1; b < B; ++b)
    assert(sentences[b].size() == sentences[0].size());

  // Per-lane prep through pooled ordinary Networks (reinit reuses each
  // lane's arena, like engine::NetworkScratch): domain init, unary
  // propagation, truth masks.  The constructor forces
  // prebuild_arcs = false, so build_arcs is never called — the
  // interleaved arc rows are synthesized directly in gather(), and
  // the per-lane pair regions are never allocated.
  const std::size_t len = sentences[0].size();
  std::vector<Network>& pool = pool_[len];
  if (pool.empty()) pool.reserve(kLanes);
  {
    obs::Span prep_span("batch.prep");
    for (std::size_t b = 0; b < B; ++b) {
      if (b < pool.size()) {
        const bool ok = pool[b].reinit(sentences[b]);
        (void)ok;
        assert(ok);
      } else {
        pool.emplace_back(*grammar_, sentences[b], opt_);
      }
    }
    for (std::size_t b = 0; b < B; ++b) {
      for (const auto& c : unary_) pool[b].apply_unary(c);
      for (std::size_t s = 0; s < binary_.size(); ++s)
        pool[b].ensure_masks(binary_[s], s);
    }
    prep_span.arg("lanes", static_cast<std::int64_t>(B));
  }
  std::span<Network> nets(pool.data(), B);

  // Batch shape + buffers.  The buffers only ever grow: every word a
  // kernel reads is written earlier in the same parse (gather fills
  // all union-alive rows fully; dead rows are never read), so a shape
  // change just re-labels the index space — no clearing, and cycling
  // through a few lengths (the serving case) costs nothing at steady
  // state.
  const int R = nets[0].num_roles();
  const std::size_t D = static_cast<std::size_t>(nets[0].domain_size());
  const std::size_t W = nets[0].domain(0).word_count();
  const std::size_t num_arcs =
      static_cast<std::size_t>(R) * static_cast<std::size_t>(R - 1) / 2;
  if (R != R_ || D != D_ || W != W_ || num_arcs != num_arcs_) {
    R_ = R;
    D_ = D;
    W_ = W;
    sW_ = W_ * kLanes;
    num_arcs_ = num_arcs;
    const auto grow = [](std::vector<Word>& v, std::size_t n) {
      if (v.size() < n) v.resize(n);
    };
    grow(dom_, static_cast<std::size_t>(R_) * sW_);
    grow(udom_, static_cast<std::size_t>(R_) * W_);
    grow(sup_, static_cast<std::size_t>(R_) * sW_);
    grow(arcs_, num_arcs_ * D_ * sW_);
    grow(masks_, binary_.size() * static_cast<std::size_t>(R_) * 4 * sW_);
    grow(vm_, sW_);
    arc_pairs_.clear();
    for (int a = 0; a < R_; ++a)
      for (int b = a + 1; b < R_; ++b) arc_pairs_.emplace_back(a, b);
  }
  sents_.assign(kLanes, nullptr);
  for (std::size_t b = 0; b < B; ++b) sents_[b] = &sentences[b];
  lane_counters_.assign(kLanes, NetworkCounters{});
  clean_sweep_at_ = ~std::uint64_t{0};

  gather(nets);

  {
    obs::Span span("batch.binary");
    // Consistency every kConsistencyStride constraints: the serial
    // engine's step-per-constraint schedule prunes domains early (so
    // later sweeps see thinner rows) but a batched pass scans the
    // union of alive rows across every arc, so running one per
    // constraint costs more than the pruning saves, and deferring all
    // of them to the final fixpoint leaves the sweeps ~20% fatter.
    // The stride buys most of the pruning at a fraction of the passes
    // (confluence makes the schedule a pure cost knob — the fixpoint
    // bits cannot change).
    constexpr std::size_t kConsistencyStride = 5;
    for (std::size_t s = 0; s < binary_.size(); ++s) {
      sweep_constraint(nets, s, B);
      if ((s + 1) % kConsistencyStride == 0) consistency_step(B);
    }
    span.arg("constraints", static_cast<std::int64_t>(binary_.size()));
  }

  int iters = 0;
  {
    obs::Span span("batch.filter");
    while (consistency_step(B) != 0) ++iters;
    span.arg("iterations", iters);
  }

  // Per-lane results straight from the batch arena.
  obs::Span span("batch.scatter");
  std::vector<BatchLaneResult> out(B);
  for (std::size_t b = 0; b < B; ++b) {
    BatchLaneResult& r = out[b];
    r.consistency_iterations = iters;
    r.domains.reserve(static_cast<std::size_t>(R_));
    bool all_nonempty = true;
    for (int role = 0; role < R_; ++role) {
      util::DynBitset d(D_);
      const Word* src = dom_row(role);
      for (std::size_t wi = 0; wi < W_; ++wi)
        d.words()[wi] = src[wi * kLanes + b];
      r.alive_role_values += d.count();
      if (d.none()) all_nonempty = false;
      r.domains.push_back(std::move(d));
    }
    r.accepted = all_nonempty;
    // Prep-phase charges (unary, mask build) + batched-phase charges.
    r.counters = nets[b].counters();
    r.counters += lane_counters_[b];
  }
  return out;
}

}  // namespace parsec::cdg
