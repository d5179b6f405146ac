// Active set for the direct SSA method: one bit per reaction, set while its
// propensity is nonzero, plus the running totals of the last sum.
//
// The paper's clocked constructions gate every computing reaction on a clock
// phase or an absence indicator, so at any instant almost every propensity
// is exactly zero (about 3 of 1019 on `delay_chain(16)`). The direct method
// still needs their sum and an index-order scan on every event; this set
// lets both visit only the nonzero entries, in ascending index order, and
// lets the sum re-add only the entries at or after the lowest one that
// changed since the previous sum.
//
// Skipping exact zeros changes no result bit:
//  * the membership test is `a != 0.0`, so a NaN counts as active and only
//    exact zeros are skipped;
//  * under round-to-nearest `x + ±0.0 == x` for every nonzero x, and a sum
//    that starts at +0.0 is never -0.0, so the total is the same double;
//  * in the scan, `target -= ±0.0` can only flip the sign of a zero target,
//    which `target <= 0.0` ignores, and a zero entry never passes
//    `a > 0.0`, so the same reaction is picked.
//
// Reusing a stored running total changes none either: the running total at
// a member is a function of the entries up to it only, so while none of
// them changes, the value stored when it was last added is what a full
// walk would hold there. Zeros add nothing, so the total a full walk holds
// just before index `from` is the one stored at the last member before
// `from`, or +0.0 when there is none, whichever way each word was walked.
//
// A word with at least `kDenseWordThreshold` members is walked densely from
// its first member to its last (its zeros add nothing); a sparser one bit
// by bit; an empty one is skipped. Walking every word bit by bit is slower
// than the plain dense loop on a fully active network.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mrsc::sim {

class ActiveSet {
 public:
  /// Members per 64-bit word from which the dense walk beats the bit walk;
  /// measured on a fully active 1000-reaction ring (docs/ENGINE.md).
  static constexpr int kDenseWordThreshold = 24;

  explicit ActiveSet(std::size_t size)
      : size_(size),
        words_((size + kWordBits - 1) / kWordBits),
        running_(size) {}

  /// Records entry `j`'s new value `a`: `j` is a member while `a != 0.0`,
  /// and the next `total` re-adds from `j` on. Every change of an entry's
  /// value must be recorded; recording an unchanged value only costs time.
  void assign(std::size_t j, double a) {
    const std::uint64_t bit = std::uint64_t{1} << (j % kWordBits);
    std::uint64_t& word = words_[j / kWordBits];
    word = a != 0.0 ? word | bit : word & ~bit;
    first_changed_ = std::min(first_changed_, j);
  }

  [[nodiscard]] bool contains(std::size_t j) const {
    return (words_[j / kWordBits] >> (j % kWordBits)) & 1;
  }

  /// The index-order sum of `values` over every entry, bitwise: the stored
  /// running total before the lowest entry assigned since the previous call,
  /// plus the members from there on. Adds the number of entries visited to
  /// `terms` (none when nothing was assigned).
  [[nodiscard]] double total(std::span<const double> values,
                             std::uint64_t& terms) {
    if (first_changed_ >= size_) return total_;
    const std::size_t from = first_changed_;
    first_changed_ = size_;
    double sum = running_before(from);
    std::size_t w = from / kWordBits;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from % kWordBits));
    while (true) {
      if (word != 0) {
        const std::size_t base = w * kWordBits;
        if (walk_densely(word)) {
          const std::size_t begin =
              base + static_cast<std::size_t>(std::countr_zero(word));
          const std::size_t end =
              base + static_cast<std::size_t>(std::bit_width(word));
          for (std::size_t j = begin; j < end; ++j) {
            sum += values[j];
            running_[j] = sum;
          }
          terms += end - begin;
        } else {
          terms += static_cast<std::uint64_t>(std::popcount(word));
          do {
            const std::size_t j =
                base + static_cast<std::size_t>(std::countr_zero(word));
            sum += values[j];
            running_[j] = sum;
            word &= word - 1;
          } while (word != 0);
        }
      }
      if (++w == words_.size()) break;
      word = words_[w];
    }
    total_ = sum;
    return sum;
  }

  /// `select_reaction` over the members: the first member at which the
  /// running difference `target - values[j]` reaches zero with a positive
  /// value, else the last positive member. At least one must be positive.
  [[nodiscard]] std::size_t select(std::span<const double> values,
                                   double target) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      if (word == 0) continue;
      const std::size_t base = w * kWordBits;
      if (walk_densely(word)) {
        const std::size_t end = std::min(base + kWordBits, size_);
        for (std::size_t j = base; j < end; ++j) {
          target -= values[j];
          if (target <= 0.0 && values[j] > 0.0) return j;
        }
        continue;
      }
      do {
        const std::size_t j =
            base + static_cast<std::size_t>(std::countr_zero(word));
        target -= values[j];
        if (target <= 0.0 && values[j] > 0.0) return j;
        word &= word - 1;
      } while (word != 0);
    }
    // Rounding residual: the scan ended with target a few ulps above zero.
    for (std::size_t w = words_.size(); w-- > 0;) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::bit_width(word) - 1;
        const std::size_t j = w * kWordBits + static_cast<std::size_t>(bit);
        if (values[j] > 0.0) return j;
        word &= ~(std::uint64_t{1} << bit);
      }
    }
    throw std::logic_error("ActiveSet::select: no positive member");
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  /// A full word skips the member count: on a fully active network every
  /// word but the last is full, and the count would be its only overhead.
  static bool walk_densely(std::uint64_t word) {
    return word == ~std::uint64_t{0} ||
           std::popcount(word) >= kDenseWordThreshold;
  }

  /// The running total stored at the last member before `j` (`j < size_`),
  /// or +0.0 when there is none.
  [[nodiscard]] double running_before(std::size_t j) const {
    std::size_t w = j / kWordBits;
    std::uint64_t word =
        words_[w] & ((std::uint64_t{1} << (j % kWordBits)) - 1);
    while (word == 0) {
      if (w == 0) return 0.0;
      word = words_[--w];
    }
    return running_[w * kWordBits +
                    static_cast<std::size_t>(std::bit_width(word)) - 1];
  }

  std::size_t size_;
  std::vector<std::uint64_t> words_;
  std::vector<double> running_;  ///< total through j, valid at members
  std::size_t first_changed_ = 0;  ///< lowest entry assigned; size_ if none
  double total_ = 0.0;             ///< the last total returned
};

}  // namespace mrsc::sim
