#include "cdg/arena.h"

#include <algorithm>
#include <stdexcept>

#include "resil/fault_plan.h"

namespace parsec::cdg {

namespace {

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

constexpr std::size_t round_up(std::size_t a, std::size_t b) {
  return ceil_div(a, b) * b;
}

}  // namespace

void NetworkArena::reshape(int roles, int domain_size, std::size_t mask_slots,
                           std::span<const int> axis_capacity) {
  assert(roles >= 0 && domain_size >= 0);
  assert(axis_capacity.empty() ||
         axis_capacity.size() == static_cast<std::size_t>(roles));
  R_ = roles;
  D_ = domain_size;
  mask_slots_ = mask_slots;
  const std::size_t R = static_cast<std::size_t>(R_);
  const std::size_t D = static_cast<std::size_t>(D_);
  stride_ = ceil_div(D, kWordBits);
  // Domain/mask/scratch rows are padded to whole cache lines (the pad
  // words stay zero: spans are sized by D and never write past
  // word_count()).
  dstride_ = round_up(stride_, kAlignWords);

  cap_.assign(R, D_);
  if (!axis_capacity.empty())
    std::copy(axis_capacity.begin(), axis_capacity.end(), cap_.begin());
  axis_off_.assign(R + 1, 0);
  cwords_off_.assign(R + 1, 0);
  for (std::size_t r = 0; r < R; ++r) {
    axis_off_[r + 1] = axis_off_[r] + static_cast<std::size_t>(cap_[r]);
    cwords_off_[r + 1] =
        cwords_off_[r] + ceil_div(static_cast<std::size_t>(cap_[r]), kWordBits);
  }
  axis_len_.assign(R, 0);
  arc_pairs_.clear();
  arc_pairs_.reserve(num_arcs());
  for (int a = 0; a < R_; ++a)
    for (int b = a + 1; b < R_; ++b) arc_pairs_.emplace_back(a, b);
  arc_off_.assign(num_arcs(), 0);
  arc_live_.assign(num_arcs(), 0);
  mask_any_.assign(R, 0);

  // Compact-arc capacity: every arc at its largest, |Aa| rows of
  // ceil(|Ab| / 64) words.
  arcs_words_ = 0;
  for (const auto& [a, b] : arc_pairs_)
    arcs_words_ += static_cast<std::size_t>(cap_[a]) *
                   (cwords_off_[b + 1] - cwords_off_[b]);

  // Region sizes in words.  The int32/uint8 regions are carved out of
  // the same uint64 buffer; word alignment of each region start keeps
  // the reinterpret_casts valid.
  const std::size_t domains_w = R * dstride_;
  const std::size_t axis_w =
      ceil_div(axis_off_[R] * sizeof(std::int32_t), sizeof(Word));
  const std::size_t flags_w = ceil_div(R * D * sizeof(std::uint8_t),
                                       sizeof(Word));
  const std::size_t masks_w = mask_slots_ * R * dstride_;
  const std::size_t support_w = R * dstride_;
  const std::size_t cwords = cwords_off_[R];

  // Every aligned-row region starts on a cache-line boundary relative
  // to the (aligned) base.
  domains_off_ = 0;
  arcs_off_ = domains_off_ + domains_w;
  axis_region_off_ = arcs_off_ + arcs_words_;
  flags_off_ = axis_region_off_ + axis_w;
  masks_off_ = round_up(flags_off_ + flags_w, kAlignWords);
  support_off_ = masks_off_ + masks_w;
  cmasks_off_ = support_off_ + support_w;
  cscratch_off_ = cmasks_off_ + kMaskParts * cwords;
  const std::size_t total = cscratch_off_ + cwords;

  // Slack so base() can be bumped to the next 64-byte boundary
  // (std::vector only guarantees alignof(Word) = 8).
  const std::size_t need = total + kAlignWords - 1;
  if (need > buf_.capacity()) {
    // `arena.alloc` fault site: models the backing allocation failing
    // (the serve layer degrades it to RequestStatus::Faulted).  Only
    // genuine growth consults the site — same-shape reinits never
    // allocate and so can never fault here.
    if (resil::should_fire("arena.alloc"))
      throw resil::InjectedFault("arena: injected allocation failure");
    buf_.reserve(need);
    ++allocations_;
  }
  buf_.assign(need, Word{0});
  const auto addr = reinterpret_cast<std::uintptr_t>(buf_.data());
  base_pad_ =
      (round_up(addr, kRowAlignBytes) - addr) / sizeof(Word);
  compacted_ = false;
}

void NetworkArena::compact() {
  std::int32_t* ax = axis_base();
  for (int r = 0; r < R_; ++r) {
    std::int32_t* out = ax + axis_off_[r];
    int len = 0;
    const util::ConstBitSpan d =
        static_cast<const NetworkArena&>(*this).domain(r);
    // The capacity bounds every domain the grammar can produce; a
    // larger one would overrun the next role's axis.
    if (d.count() > static_cast<std::size_t>(cap_[r]))
      throw std::logic_error("arena: domain exceeds its axis capacity");
    d.for_each(
        [&](std::size_t rv) { out[len++] = static_cast<std::int32_t>(rv); });
    axis_len_[r] = len;
  }
  compacted_ = true;
  // Lay the arcs out back to back, then fill the payload bits: every
  // axis value is alive, so each matrix starts all ones.
  std::size_t off = 0;
  for (std::size_t t = 0; t < arc_pairs_.size(); ++t) {
    const auto [a, b] = arc_pairs_[t];
    arc_off_[t] = off;
    const std::size_t rows = axis_size(a);
    const std::size_t cols = axis_size(b);
    const std::size_t W = axis_words(b);
    arc_live_[t] = static_cast<std::uint32_t>(rows * cols);
    Word* w = base() + arcs_off_ + off;
    off += rows * W;
    if (!W) continue;
    const Word tail = cols % kWordBits
                          ? (Word{1} << (cols % kWordBits)) - 1
                          : ~Word{0};
    for (std::size_t i = 0; i < rows; ++i, w += W) {
      for (std::size_t k = 0; k + 1 < W; ++k) w[k] = ~Word{0};
      w[W - 1] = tail;
    }
  }
}

int NetworkArena::compact_id(int role, int rv) const {
  const std::span<const std::int32_t> ax = axis(role);
  const auto it = std::lower_bound(ax.begin(), ax.end(), rv);
  if (it == ax.end() || *it != rv) return -1;
  return static_cast<int>(it - ax.begin());
}

}  // namespace parsec::cdg
