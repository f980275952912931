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

/// Words of a pair region over `v` values: the matrix, five rows (four
/// masks and the scratch) and the int32 axis.
constexpr std::size_t pair_region_words(std::size_t v) {
  const std::size_t w = ceil_div(v, NetworkArena::kWordBits);
  return (v + NetworkArena::kMaskParts + 1) * w +
         ceil_div(v * sizeof(std::int32_t), sizeof(NetworkArena::Word));
}

/// `arena.alloc` fault site: models a backing allocation failing
/// (the serve layer degrades it to RequestStatus::Faulted).  Only genuine
/// growth consults it: same-shape reinits and a pair region that already
/// fits never allocate and so can never fault.
void check_alloc_fault() {
  if (resil::should_fire("arena.alloc"))
    throw resil::InjectedFault("arena: injected allocation failure");
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
  // Domain rows are padded to whole cache lines (the pad words stay
  // zero: spans are sized by D and never write past word_count()).
  dstride_ = round_up(stride_, kAlignWords);

  cap_.assign(R, D_);
  if (!axis_capacity.empty())
    std::copy(axis_capacity.begin(), axis_capacity.end(), cap_.begin());
  vmax_ = 0;
  for (int c : cap_) vmax_ += static_cast<std::size_t>(c);
  voff_.assign(R + 1, 0);
  V_ = VW_ = 0;

  // The masks follow the domains; offsets and sizes are in words.
  masks_off_ = R * dstride_;
  const std::size_t total = masks_off_ + mask_slots_ * R * stride_;

  // Slack so base() can be bumped to the next 64-byte boundary
  // (std::vector only guarantees alignof(Word) = 8).
  const std::size_t need = total + kAlignWords - 1;
  if (need > buf_.capacity()) {
    check_alloc_fault();
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
  const NetworkArena& self = *this;
  for (int r = 0; r < R_; ++r) {
    const std::size_t alive = self.domain(r).count();
    // The capacity bounds every domain the grammar can produce; a
    // larger one would break the worst-case bound of the pair region.
    if (alive > static_cast<std::size_t>(cap_[r]))
      throw std::logic_error("arena: domain exceeds its axis capacity");
    voff_[r + 1] = voff_[r] + alive;
  }
  V_ = voff_[static_cast<std::size_t>(R_)];
  VW_ = ceil_div(V_, kWordBits);
  const std::size_t need = pair_region_words(V_);
  if (need > pairs_.size()) {
    check_alloc_fault();
    const std::size_t min_words = kMinPairBytes / sizeof(Word);
    pairs_.assign(std::min(pair_region_words(vmax_),
                           std::max(min_words, 2 * need)),
                  Word{0});
    ++allocations_;
  }
  compacted_ = true;

  std::int32_t* ax = axis_base();
  for (int r = 0; r < R_; ++r) {
    std::int32_t* out = ax + voff_[r];
    self.domain(r).for_each(
        [&](std::size_t rv) { *out++ = static_cast<std::int32_t>(rv); });
  }
  // Every axis value is alive, so each row starts with ones at every
  // other role's columns: all of [0, |V|) but its own block.
  for (int r = 0; r < R_; ++r) {
    const std::size_t lo = voff_[r], hi = voff_[r + 1];
    for (std::size_t v = lo; v < hi; ++v) {
      util::BitSpan row(pair_row(v), V_);
      row.reset_all();
      row.set_run(0, lo);
      row.set_run(hi, V_);
    }
  }
}

int NetworkArena::role_of(std::size_t v) const {
  assert(v < V_);
  const auto it = std::upper_bound(voff_.begin(), voff_.end(), v);
  return static_cast<int>(it - voff_.begin()) - 1;
}

int NetworkArena::pair_index(int role, int rv) const {
  const std::span<const std::int32_t> ax = axis(role);
  const auto it = std::lower_bound(ax.begin(), ax.end(), rv);
  if (it == ax.end() || *it != rv) return -1;
  return static_cast<int>(block_begin(role) +
                          static_cast<std::size_t>(it - ax.begin()));
}

}  // namespace parsec::cdg
