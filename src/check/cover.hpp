// The ordered-cover check every row-split validator shares: partition
// regions (core/partition.hpp) and multi-device shards (runtime/shard.hpp)
// both own runs of one index domain that must tile it exactly. A gap leaves
// work undone; an overlap means two executors write the same y rows.
#pragma once

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/types.hpp"

namespace crsd::check {

/// Checks that `runs`, in the given order, tile [0, domain): each non-empty
/// run [begin, end) starts where the previous one ended and the last ends at
/// `domain`. Empty runs own nothing and are skipped; a reversed run is an
/// error. Returns the first break as one kPlanPartition diagnostic whose
/// offset is the run's index (-1 for a short cover); empty = a cover.
/// `what` names a run in the message ("region", "shard", ...).
inline std::vector<Diagnostic> check_ordered_cover(
    const std::vector<std::array<index_t, 2>>& runs, index_t domain,
    const std::string& what) {
  auto fail = [](std::int64_t which, auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    Diagnostic d;
    d.code = Code::kPlanPartition;
    d.severity = Severity::kError;
    d.message = os.str();
    d.offset = which;
    return std::vector<Diagnostic>{std::move(d)};
  };
  index_t cursor = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto [begin, end] = runs[i];
    const auto which = static_cast<std::int64_t>(i);
    if (end < begin) {
      return fail(which, what, ' ', i, " [", begin, ", ", end,
                  ") is reversed");
    }
    if (begin == end) continue;
    if (begin < cursor) {
      return fail(which, what, ' ', i, " [", begin, ", ", end,
                  ") overlaps the runs before it, which end at ", cursor);
    }
    if (begin > cursor) {
      return fail(which, what, ' ', i, " [", begin, ", ", end,
                  ") leaves a gap after ", cursor);
    }
    cursor = end;
  }
  if (cursor != domain) {
    return fail(-1, what, "s cover [0, ", cursor, ") of [0, ", domain, ")");
  }
  return {};
}

}  // namespace crsd::check
