// Binary serialization of built CRSD matrices. Construction (pattern
// discovery) costs a multi-pass analysis; production users build once and
// reload, the same way OpenCL program binaries are cached. Little-endian
// POD stream with a magic/version header and the value type tagged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "check/validate.hpp"
#include "common/error.hpp"
#include "core/crsd_matrix.hpp"

namespace crsd {

namespace detail {

// v002 added the storage-mode fields (value precision, scatter index
// representation, per-pattern index widths); v001 streams are not accepted.
inline constexpr char kCrsdMagic[8] = {'C', 'R', 'S', 'D', 'v', '0', '0', '2'};

template <typename P>
void write_pod(std::ostream& os, const P& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(P));
}

template <typename P>
P read_pod(std::istream& is) {
  P v;
  is.read(reinterpret_cast<char*>(&v), sizeof(P));
  CRSD_CHECK_MSG(is.good(), "truncated CRSD stream");
  return v;
}

template <typename P>
void write_vec(std::ostream& os, const std::vector<P>& v) {
  write_pod<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(P)));
}

/// Reads a count and its payload. The count is untrusted, so the vector
/// grows one bounded chunk at a time as payload bytes actually arrive: a
/// hostile count costs at most one chunk beyond what the stream holds and
/// ends in "truncated CRSD stream", never in a huge allocation.
template <typename P>
std::vector<P> read_vec(std::istream& is) {
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 20) / sizeof(P);
  const auto n = read_pod<std::uint64_t>(is);
  std::vector<P> v;
  while (v.size() < n) {
    const std::size_t have = v.size();
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - have));
    v.resize(have + take);
    is.read(reinterpret_cast<char*>(v.data() + have),
            static_cast<std::streamsize>(take * sizeof(P)));
    CRSD_CHECK_MSG(is.good(), "truncated CRSD stream");
  }
  return v;
}

/// Reads a storage-mode tag and rejects any value above `max_tag` with a
/// malformed-input diagnostic.
inline std::uint8_t read_tag(std::istream& is, std::uint8_t max_tag,
                             const char* what) {
  const auto tag = read_pod<std::uint8_t>(is);
  if (tag > max_tag) {
    check::Diagnostic d;
    d.code = check::Code::kMalformedInput;
    d.message = std::string("unknown ") + what + " tag " +
                std::to_string(int(tag));
    throw check::DiagnosticError(d.format(), {d});
  }
  return tag;
}

}  // namespace detail

/// Writes `m` to a binary stream.
template <Real T>
void write_crsd(std::ostream& os, const CrsdMatrix<T>& m) {
  os.write(detail::kCrsdMagic, sizeof(detail::kCrsdMagic));
  detail::write_pod<std::uint8_t>(os, std::is_same_v<T, double> ? 8 : 4);
  detail::write_pod<index_t>(os, m.num_rows());
  detail::write_pod<index_t>(os, m.num_cols());
  detail::write_pod<index_t>(os, m.mrows());
  detail::write_pod<size64_t>(os, m.nnz());
  detail::write_pod<index_t>(os, m.num_patterns());
  for (const auto& p : m.patterns()) {
    detail::write_pod<index_t>(os, p.start_row);
    detail::write_pod<index_t>(os, p.num_segments);
    detail::write_vec(os, p.offsets);
  }
  const CrsdStorage<T>& s = m.storage();
  detail::write_pod<std::uint8_t>(os,
                                  static_cast<std::uint8_t>(s.value_precision));
  detail::write_pod<std::uint8_t>(
      os, static_cast<std::uint8_t>(s.scatter_index_mode));
  detail::write_vec(os, s.pattern_index_width);
  switch (s.value_precision) {
    case ValuePrecision::kNative:
      detail::write_vec(os, s.dia_val);
      break;
    case ValuePrecision::kFloat32:
      detail::write_vec(os, s.dia_val_f32);
      break;
  }
  detail::write_vec(os, s.scatter_rowno);
  detail::write_pod<index_t>(os, s.scatter_width);
  switch (s.scatter_index_mode) {
    case ScatterIndexMode::kIndex32:
      detail::write_vec(os, s.scatter_col);
      break;
    case ScatterIndexMode::kIndex16:
      detail::write_vec(os, s.scatter_col16);
      break;
  }
  switch (s.value_precision) {
    case ValuePrecision::kNative:
      detail::write_vec(os, s.scatter_val);
      break;
    case ValuePrecision::kFloat32:
      detail::write_vec(os, s.scatter_val_f32);
      break;
  }
  CRSD_CHECK_MSG(os.good(), "write failure while serializing CRSD");
}

/// Reads a CRSD matrix written by write_crsd. Throws on magic/precision
/// mismatch or truncation, check::DiagnosticError (kMalformedInput) on an
/// unknown storage-mode tag, and check::DiagnosticError with the
/// validator's findings when the loaded streams break a container
/// invariant (check::validate), so no index a kernel follows is out of
/// range.
template <Real T>
CrsdMatrix<T> read_crsd(std::istream& is) {
  char magic[sizeof(detail::kCrsdMagic)];
  is.read(magic, sizeof(magic));
  CRSD_CHECK_MSG(is.good() && std::memcmp(magic, detail::kCrsdMagic,
                                          sizeof(magic)) == 0,
                 "not a CRSD binary stream");
  const auto value_bytes = detail::read_pod<std::uint8_t>(is);
  CRSD_CHECK_MSG(value_bytes == sizeof(T),
                 "precision mismatch: stream holds " << int(value_bytes)
                     << "-byte values, requested " << sizeof(T));
  CrsdStorage<T> s;
  s.num_rows = detail::read_pod<index_t>(is);
  s.num_cols = detail::read_pod<index_t>(is);
  s.mrows = detail::read_pod<index_t>(is);
  s.nnz = detail::read_pod<size64_t>(is);
  const auto num_patterns = detail::read_pod<index_t>(is);
  CRSD_CHECK_MSG(num_patterns >= 0 &&
                     std::int64_t{num_patterns} <= std::int64_t{s.num_rows} + 1,
                 "implausible pattern count");
  // The pattern count is untrusted: the list grows as patterns arrive
  // instead of being reserved up front.
  for (index_t p = 0; p < num_patterns; ++p) {
    DiagonalPattern pat;
    pat.start_row = detail::read_pod<index_t>(is);
    pat.num_segments = detail::read_pod<index_t>(is);
    pat.offsets = detail::read_vec<diag_offset_t>(is);
    pat.groups = group_diagonals(pat.offsets);
    s.patterns.push_back(std::move(pat));
  }
  s.value_precision = static_cast<ValuePrecision>(detail::read_tag(
      is, static_cast<std::uint8_t>(ValuePrecision::kFloat32),
      "value-precision"));
  s.scatter_index_mode = static_cast<ScatterIndexMode>(detail::read_tag(
      is, static_cast<std::uint8_t>(ScatterIndexMode::kIndex16),
      "index-mode"));
  s.pattern_index_width = detail::read_vec<std::uint8_t>(is);
  switch (s.value_precision) {
    case ValuePrecision::kNative:
      s.dia_val = detail::read_vec<T>(is);
      break;
    case ValuePrecision::kFloat32:
      s.dia_val_f32 = detail::read_vec<float>(is);
      break;
  }
  s.scatter_rowno = detail::read_vec<index_t>(is);
  s.scatter_width = detail::read_pod<index_t>(is);
  switch (s.scatter_index_mode) {
    case ScatterIndexMode::kIndex32:
      s.scatter_col = detail::read_vec<index_t>(is);
      break;
    case ScatterIndexMode::kIndex16:
      s.scatter_col16 = detail::read_vec<std::uint16_t>(is);
      break;
  }
  switch (s.value_precision) {
    case ValuePrecision::kNative:
      s.scatter_val = detail::read_vec<T>(is);
      break;
    case ValuePrecision::kFloat32:
      s.scatter_val_f32 = detail::read_vec<float>(is);
      break;
  }
  // The stream does not record zero_scatter_rows_in_dia, so scatter rows
  // may keep their diagonal slots.
  check::ValidateOptions vopts;
  vopts.require_scatter_disjoint = false;
  std::vector<check::Diagnostic> diags = check::validate(s, vopts);
  if (check::has_errors(diags)) {
    throw check::DiagnosticError(
        "malformed CRSD stream:\n" + check::format_diagnostics(diags),
        std::move(diags));
  }
  return CrsdMatrix<T>(std::move(s));
}

}  // namespace crsd
