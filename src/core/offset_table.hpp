// Flat open-addressing table from diagonal offset to a counter. It sizes
// itself by the number of distinct offsets it holds, never by the matrix
// dimensions, and remembers insertion order so a caller can walk its
// entries deterministically and clear it in time proportional to what it
// holds. The CRSD builder's pass 1 counts each row segment's offsets, and
// keeps its anchor sets and diagonal buckets, in these tables;
// structure_hash counts a whole matrix's diagonal populations in one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace crsd::detail {

class OffsetTable {
 public:
  OffsetTable() { rehash(kMinCapacity); }

  /// Counter of `off`, inserted at 0 on first sight. The reference stays
  /// valid until the next insertion.
  size64_t& operator[](diag_offset_t off) {
    std::size_t s = probe(off);
    if (slots_[s].off == kEmpty) {
      if (2 * (order_.size() + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        s = probe(off);
      }
      slots_[s] = {off, 0};
      order_.push_back(s);
    }
    return slots_[s].value;
  }

  /// Counter of `off`, or null when the table does not hold it.
  const size64_t* find(diag_offset_t off) const {
    const Slot& slot = slots_[probe(off)];
    return slot.off == kEmpty ? nullptr : &slot.value;
  }

  /// Distinct offsets held.
  std::size_t size() const { return order_.size(); }

  /// Calls f(offset, counter) for every entry, in first-insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const std::size_t s : order_) f(slots_[s].off, slots_[s].value);
  }

  /// Forgets every entry, touching only the slots in use.
  void clear() {
    for (const std::size_t s : order_) slots_[s].off = kEmpty;
    order_.clear();
  }

 private:
  struct Slot {
    diag_offset_t off;
    size64_t value;
  };

  // A diagonal offset lies in [-(num_rows - 1), num_cols - 1], so the
  // smallest int32 never occurs and can mark a free slot.
  static constexpr diag_offset_t kEmpty = kInvalidIndex;
  static constexpr std::size_t kMinCapacity = 16;

  // Fibonacci hashing: the top bits of off * 2^64/phi spread runs of
  // consecutive offsets (a band) over the whole table.
  std::size_t probe(diag_offset_t off) const {
    std::size_t s = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(off)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
    while (slots_[s].off != kEmpty && slots_[s].off != off) {
      s = (s + 1) & (slots_.size() - 1);
    }
    return s;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity, Slot{kEmpty, 0});
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (std::size_t& s : order_) {
      const Slot entry = old[s];
      s = probe(entry.off);
      slots_[s] = entry;
    }
  }

  std::vector<Slot> slots_;         ///< power-of-two capacity
  std::vector<std::size_t> order_;  ///< slot of each entry, by insertion
  int shift_ = 64;                  ///< 64 - log2(capacity)
};

}  // namespace crsd::detail
