// Diagonal patterns — the paper's §II-B abstraction. A pattern describes,
// for a contiguous run of row segments, which diagonals are live and how
// they are grouped into adjacent (AD) and non-adjacent (NAD) groups:
//
//   group            = (group_type, number_of_diagonals)
//   diagonal-pattern = {group_1, group_2, ... group_m}
//   matrix           = {pattern_1, pattern_2, ... pattern_n}
//
// AD groups matter to the GPU kernel: their diagonals read overlapping,
// contiguous ranges of the source vector, which the generated codelet stages
// through local memory.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace crsd {

enum class GroupType { kAdjacent, kNonAdjacent };

/// One AD or NAD group within a pattern.
struct DiagonalGroup {
  GroupType type = GroupType::kNonAdjacent;
  index_t num_diagonals = 0;
  /// Index of the group's first diagonal within the pattern's offset list.
  index_t first_diagonal = 0;

  bool operator==(const DiagonalGroup&) const = default;
};

/// Groups a sorted offset list per §II-B: maximal runs of offsets differing
/// by exactly 1 (length >= 2) become AD groups; each contiguous piece of
/// leftover offsets between/around AD runs becomes one NAD group.
/// Example: {0, 2, 3, 5, 7} -> {(NAD,1), (AD,2), (NAD,2)}.
std::vector<DiagonalGroup> group_diagonals(
    const std::vector<diag_offset_t>& offsets);

/// One diagonal pattern: a run of `num_segments` row segments starting at
/// row `start_row`, all sharing the same live diagonal set.
struct DiagonalPattern {
  index_t start_row = 0;      ///< SR_p — first matrix row the pattern covers.
  index_t num_segments = 0;   ///< NRS_p — row segments in this pattern.
  std::vector<diag_offset_t> offsets;  ///< live diagonals, ascending.
  std::vector<DiagonalGroup> groups;   ///< AD/NAD grouping of `offsets`.

  index_t num_diagonals() const {
    return static_cast<index_t>(offsets.size());
  }
  /// NNzRS_p — value slots per row segment.
  size64_t slots_per_segment(index_t mrows) const {
    return static_cast<size64_t>(num_diagonals()) * mrows;
  }
  /// Widest AD group (sizes the local-memory staging buffer).
  index_t max_adjacent_width() const;
  /// Fraction of diagonals living in AD groups.
  double adjacent_fraction() const;
};

/// Renders a pattern in the paper's notation: "{(NAD,1),(AD,2),(NAD,2)}".
std::string pattern_to_string(const DiagonalPattern& p);

/// Merges per-segment live-diagonal sets (ascending offsets, one set per
/// row segment) into maximal equal-set pattern runs — builder pass 3.
/// Consumes the sets (they are moved into the patterns).
std::vector<DiagonalPattern> coalesce_live_sets(
    std::vector<std::vector<diag_offset_t>>& live_sets, index_t mrows);

/// Global-segment subrange of a pattern where the branch-free interior
/// kernel applies: every lane exists (the segment is full) and every
/// `row + offset` is in [0, num_cols) for every live diagonal, so no clamp
/// and no short-lane handling is needed. Segments of the pattern outside
/// [begin, end) — at most a few at each boundary of the matrix — take the
/// clamped edge path. Both the interpreted engine and the code generator
/// derive their interior/edge split from this one function.
struct SegmentInterior {
  index_t begin = 0;  ///< first interior global segment id
  index_t end = 0;    ///< one past the last; begin == end means "all edge"
};

/// Computes the interior range for `pat`, which owns global segments
/// [seg_begin, seg_end) of a matrix with `mrows`-row segments and dimensions
/// num_rows x num_cols.
SegmentInterior pattern_interior_segments(const DiagonalPattern& pat,
                                          index_t seg_begin, index_t seg_end,
                                          index_t mrows, index_t num_rows,
                                          index_t num_cols);

}  // namespace crsd
