#include "codegen/crsd_codegen.hpp"

#include <string>
#include <vector>

#include "codegen/code_writer.hpp"
#include "common/error.hpp"

namespace crsd::codegen {
namespace {

/// Precision-independent view of a CRSD matrix's structure.
struct Meta {
  index_t num_rows = 0;
  index_t num_cols = 0;
  index_t mrows = 0;
  const std::vector<DiagonalPattern>* patterns = nullptr;
  const std::vector<index_t>* cum_segments = nullptr;
  const std::vector<size64_t>* val_offsets = nullptr;
  /// Per-pattern clamp-free interior segment range (same split the
  /// interpreted engine uses; computed by pattern_interior_segments).
  std::vector<SegmentInterior> interior;
  index_t num_scatter_rows = 0;
  index_t scatter_width = 0;
  const char* type_name = "double";
  /// Storage mode of the matrix the codelet is generated for. Native
  /// fp64/fp32 + i32 storage passes typed stream pointers and accumulates
  /// in T; compact modes switch the value/column stream parameters to a raw
  /// void* ABI and widen loads into double accumulators.
  ValuePrecision value_precision = ValuePrecision::kNative;
  ScatterIndexMode scol_mode = ScatterIndexMode::kIndex32;
};

std::string itos(std::int64_t v) { return std::to_string(v); }

/// Text-generation policy derived from the storage mode: which type names
/// the value stream and accumulators use, and how a value load / multiply /
/// store line is spelled. Under the native policy vt/at collapse to "T" and
/// term() and store() leave their operands as they are.
struct StorageCtx {
  bool raw = false;    ///< non-native storage: void* stream parameters
  bool widen = false;  ///< compact values: accumulate in double
  ScatterIndexMode scol_mode = ScatterIndexMode::kIndex32;

  const char* vt() const { return raw ? "VT" : "T"; }
  const char* at() const { return widen ? "AT" : "T"; }
  std::string term(const std::string& val_expr,
                   const std::string& x_expr) const {
    if (!widen) return val_expr + " * " + x_expr;
    return "(AT)" + val_expr + " * (AT)" + x_expr;
  }
  std::string store(const std::string& acc_expr) const {
    return widen ? "(T)" + acc_expr : acc_expr;
  }
};

StorageCtx make_storage_ctx(const Meta& meta) {
  StorageCtx sc;
  sc.raw = meta.value_precision != ValuePrecision::kNative ||
           meta.scol_mode != ScatterIndexMode::kIndex32;
  sc.widen = meta.value_precision != ValuePrecision::kNative;
  sc.scol_mode = meta.scol_mode;
  return sc;
}

/// True if diagonal `off` stays inside [0, num_cols) for every row the
/// pattern covers — then the generated x index needs no clamp.
bool offset_in_range(const Meta& meta, const DiagonalPattern& p,
                     diag_offset_t off) {
  const index_t first_row = p.start_row;
  const index_t last_row = std::min<index_t>(
      meta.num_rows, p.start_row + p.num_segments * meta.mrows) - 1;
  return first_row + off >= 0 &&
         static_cast<std::int64_t>(last_row) + off <= meta.num_cols - 1;
}

std::string x_index_expr(const Meta& meta, const DiagonalPattern& p,
                         diag_offset_t off, const std::string& row_var) {
  const std::string shifted =
      off == 0 ? row_var
                : row_var + (off > 0 ? " + " + itos(off)
                                     : " - " + itos(-std::int64_t{off}));
  if (offset_in_range(meta, p, off)) return "x[" + shifted + "]";
  return "x[crsd_clampi(" + shifted + ", 0, " + itos(meta.num_cols - 1) + ")]";
}

/// Emits the scalar clamped per-lane body for one segment `g` of pattern
/// `p` — used for edge segments (partial lanes / out-of-range columns).
void emit_cpu_edge_segment_body(CodeWriter& w, const Meta& meta,
                                const DiagonalPattern& p, index_t seg0,
                                size64_t base, size64_t slots,
                                const StorageCtx& sc) {
  w.line("const " + std::string(sc.vt()) + "* unit = dia_val + " +
         itos(static_cast<std::int64_t>(base)) +
         "ull + static_cast<std::uint64_t>(g - " + itos(seg0) + ") * " +
         itos(static_cast<std::int64_t>(slots)) + "ull;");
  w.line("const std::int32_t row0 = g * " + itos(meta.mrows) + ";");
  w.line("const std::int32_t lanes = row0 + " + itos(meta.mrows) + " <= " +
         itos(meta.num_rows) + " ? " + itos(meta.mrows) + " : " +
         itos(meta.num_rows) + " - row0;");
  w.open("for (std::int32_t lane = 0; lane < lanes; ++lane)");
  w.line("const std::int32_t r = row0 + lane;");
  if (p.offsets.empty()) {
    w.line("y[r] = T(0);");
  } else {
    w.line(std::string(sc.at()) + " sum = " + sc.at() + "(0);");
    // The unrolled per-diagonal lines: the paper's loop-unrolling
    // optimization, with the column offsets as immediates.
    for (index_t d = 0; d < p.num_diagonals(); ++d) {
      const diag_offset_t off = p.offsets[static_cast<std::size_t>(d)];
      w.line("sum += " +
             sc.term("unit[lane + " +
                         itos(static_cast<std::int64_t>(d) * meta.mrows) + "]",
                     x_index_expr(meta, p, off, "r")) +
             ";");
    }
    w.line("y[r] = " + sc.store("sum") + ";");
  }
  w.close();  // lane loop
}

/// Emits the clamp-free interior loop for one pattern: restrict-qualified
/// stream pointers, constant trip counts, lane-innermost per-diagonal
/// sweeps the compiler vectorizes, and a stack-staged x window for AD
/// groups (the codelet analogue of the paper's local-memory staging).
/// Each segment sums into a local block of mrows accumulators and stores it
/// to y once, so a segment's partial sums never pass through the cache line
/// it shares with a neighbouring segment that another thread may be
/// writing. Only patterns with diagonals have an interior.
void emit_cpu_interior_loop(CodeWriter& w, const Meta& meta,
                            const DiagonalPattern& p, index_t seg0,
                            size64_t base, size64_t slots,
                            const StorageCtx& sc) {
  const index_t m = meta.mrows;
  w.open("for (std::int32_t g = i0; g < i1; ++g)");
  w.line("const " + std::string(sc.vt()) + "* CRSD_RESTRICT unit = dia_val + " +
         itos(static_cast<std::int64_t>(base)) +
         "ull + static_cast<std::uint64_t>(g - " + itos(seg0) + ") * " +
         itos(static_cast<std::int64_t>(slots)) + "ull;");
  w.line("T* CRSD_RESTRICT yy = y + static_cast<std::int64_t>(g) * " +
         itos(m) + ";");
  w.line("const T* xx = x + static_cast<std::int64_t>(g) * " + itos(m) + ";");
  w.line(std::string(sc.at()) + " acc[" + itos(m) + "];");
  bool init = true;
  for (const auto& grp : p.groups) {
    const bool staged =
        grp.type == GroupType::kAdjacent && grp.num_diagonals >= 2;
    if (staged) {
      const diag_offset_t first =
          p.offsets[static_cast<std::size_t>(grp.first_diagonal)];
      const index_t window = m + grp.num_diagonals - 1;
      w.open("");
      w.line("// adjacent group " + itos(first) + ".." +
             itos(first + grp.num_diagonals - 1) +
             ": one staged x window feeds all " + itos(grp.num_diagonals) +
             " diagonals");
      w.line("T xbuf[" + itos(window) + "];");
      w.open("for (std::int32_t i = 0; i < " + itos(window) + "; ++i)");
      w.line("xbuf[i] = xx[i + " + itos(first) + "];");
      w.close();
      for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
        const index_t d = grp.first_diagonal + gd;
        w.open("for (std::int32_t lane = 0; lane < " + itos(m) + "; ++lane)");
        w.line(std::string("acc[lane] ") + (init ? "=" : "+=") + " " +
               sc.term("unit[lane + " + itos(static_cast<std::int64_t>(d) * m) +
                           "]",
                       "xbuf[lane + " + itos(gd) + "]") +
               ";");
        w.close();
        init = false;
      }
      w.close();
    } else {
      for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
        const index_t d = grp.first_diagonal + gd;
        const diag_offset_t off = p.offsets[static_cast<std::size_t>(d)];
        const std::string xoff =
            off == 0 ? "lane"
                     : (off > 0 ? "lane + " + itos(off)
                                : "lane - " + itos(-std::int64_t{off}));
        w.open("for (std::int32_t lane = 0; lane < " + itos(m) + "; ++lane)");
        w.line(std::string("acc[lane] ") + (init ? "=" : "+=") + " " +
               sc.term("unit[lane + " + itos(static_cast<std::int64_t>(d) * m) +
                           "]",
                       "xx[" + xoff + "]") +
               ";");
        w.close();
        init = false;
      }
    }
  }
  w.open("for (std::int32_t lane = 0; lane < " + itos(m) + "; ++lane)");
  w.line("yy[lane] = " + sc.store("acc[lane]") + ";");
  w.close();
  w.close();  // interior segment loop
}

void emit_cpu_diag(CodeWriter& w, const Meta& meta,
                   const CpuCodeletOptions& opts, const StorageCtx& sc) {
  if (sc.raw) {
    // Compact storage: the value stream travels as an untyped pointer (the
    // host passes the active stream's data()), typed here once.
    w.open("extern \"C\" void " + opts.symbol_prefix +
           "_diag(const void* dia_stream, const T* x, T* y, "
           "std::int32_t seg_begin, std::int32_t seg_end)");
    w.line("const VT* dia_val = (const VT*)dia_stream;");
  } else {
    w.open("extern \"C\" void " + opts.symbol_prefix +
           "_diag(const T* dia_val, const T* x, T* y, std::int32_t seg_begin, "
           "std::int32_t seg_end)");
  }
  const auto& patterns = *meta.patterns;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const auto& p = patterns[pi];
    const index_t seg0 = (*meta.cum_segments)[pi];
    const index_t seg1 = (*meta.cum_segments)[pi + 1];
    const size64_t base = (*meta.val_offsets)[pi];
    const size64_t slots = p.slots_per_segment(meta.mrows);
    const SegmentInterior in = meta.interior[pi];
    w.line("// pattern " + itos(static_cast<std::int64_t>(pi)) + ": " +
           pattern_to_string(p) + ", rows [" + itos(p.start_row) + ", " +
           itos(std::min<index_t>(meta.num_rows,
                                  p.start_row + p.num_segments * meta.mrows)) +
           "), segments [" + itos(seg0) + ", " + itos(seg1) +
           "), interior [" + itos(in.begin) + ", " + itos(in.end) + ")");
    w.open("");
    w.line("const std::int32_t g0 = seg_begin > " + itos(seg0) +
           " ? seg_begin : " + itos(seg0) + ";");
    w.line("const std::int32_t g1 = seg_end < " + itos(seg1) +
           " ? seg_end : " + itos(seg1) + ";");
    if (in.begin >= in.end) {
      // No interior: the whole pattern runs on the clamped edge path.
      w.open("for (std::int32_t g = g0; g < g1; ++g)");
      emit_cpu_edge_segment_body(w, meta, p, seg0, base, slots, sc);
      w.close();
    } else {
      w.line("const std::int32_t i0 = crsd_clampi(" + itos(in.begin) +
             ", g0, g1);");
      w.line("const std::int32_t i1 = crsd_clampi(" + itos(in.end) +
             ", i0, g1);");
      // Edge segments before and after the interior share one emitted body.
      w.line("const std::int32_t edge_bounds[4] = {g0, i0, i1, g1};");
      w.open("for (std::int32_t ei = 0; ei < 2; ++ei)");
      w.open("for (std::int32_t g = edge_bounds[2 * ei]; "
             "g < edge_bounds[2 * ei + 1]; ++g)");
      emit_cpu_edge_segment_body(w, meta, p, seg0, base, slots, sc);
      w.close();
      w.close();
      emit_cpu_interior_loop(w, meta, p, seg0, base, slots, sc);
    }
    w.close();  // pattern scope
  }
  w.close();  // function
}

/// Scatter rows per block of the CPU scatter loop. A block's accumulators
/// (8 KiB in double) stay in L1 beside one slot's value and column runs.
constexpr index_t kScatterBlockRows = 1024;

/// Emits the scatter phase: scatter rows [row_begin, row_end) of the
/// column-major ELL side matrix, in blocks of kScatterBlockRows rows taken
/// slot by slot, so each slot of a block is one contiguous run of values
/// and columns. Walking one row at a time instead steps nsr elements between
/// a row's slots, and at nsr a multiple of 512 every slot of a row maps to
/// one L1 set. Each row still sums its own slots from zero in slot order,
/// so results stay bitwise equal to CrsdMatrix::spmv_scatter_ell.
void emit_cpu_scatter(CodeWriter& w, const Meta& meta,
                      const CpuCodeletOptions& opts, const StorageCtx& sc) {
  if (sc.raw) {
    // Compact storage: the value stream and the column representation
    // travel untyped.
    w.open("extern \"C\" void " + opts.symbol_prefix +
           "_scatter(const void* scatter_val_stream, "
           "const void* scatter_col_stream, "
           "const std::int32_t* scatter_rowno, const T* x, T* y, "
           "std::int32_t row_begin, std::int32_t row_end)");
  } else {
    w.open("extern \"C\" void " + opts.symbol_prefix +
           "_scatter(const T* scatter_val, const std::int32_t* scatter_col, "
           "const std::int32_t* scatter_rowno, const T* x, T* y, "
           "std::int32_t row_begin, std::int32_t row_end)");
  }
  if (meta.num_scatter_rows == 0) {
    if (sc.raw) {
      w.line("(void)scatter_val_stream; (void)scatter_col_stream;");
      w.line("(void)scatter_rowno;");
    } else {
      w.line("(void)scatter_val; (void)scatter_col; (void)scatter_rowno;");
    }
    w.line("(void)x; (void)y; (void)row_begin; (void)row_end;");
    w.close();
    return;
  }
  const std::string nsr = itos(meta.num_scatter_rows);
  const std::string step = itos(kScatterBlockRows);
  const bool narrow = sc.scol_mode == ScatterIndexMode::kIndex16;
  const std::string ct = narrow ? "std::uint16_t" : "std::int32_t";
  if (sc.raw) {
    w.line("const VT* scatter_val = (const VT*)scatter_val_stream;");
    w.line("const " + ct + "* scatter_col = (const " + ct +
           "*)scatter_col_stream;");
  }
  w.line("const std::int32_t i0 = row_begin < 0 ? 0 : row_begin;");
  w.line("const std::int32_t i1 = row_end > " + nsr + " ? " + nsr +
         " : row_end;");
  w.line(std::string(sc.at()) + " acc[" + step + "];");
  w.open("for (std::int32_t b = i0; b < i1; b += " + step + ")");
  w.line("const std::int32_t nb = i1 - b < " + step + " ? i1 - b : " + step +
         ";");
  w.line("for (std::int32_t l = 0; l < nb; ++l) acc[l] = " +
         std::string(sc.at()) + "(0);");
  w.open("for (std::int32_t k = 0; k < " + itos(meta.scatter_width) +
         "; ++k)");
  w.line("const " + std::string(sc.vt()) +
         "* v = scatter_val + static_cast<std::int64_t>(k) * " +
         nsr + " + b;");
  w.line("const " + ct +
         "* cc = scatter_col + static_cast<std::int64_t>(k) * " +
         nsr + " + b;");
  w.open("for (std::int32_t l = 0; l < nb; ++l)");
  w.line(std::string(narrow ? "if (cc[l] != 65535u)" : "if (cc[l] >= 0)") +
         " acc[l] += " + sc.term("v[l]", "x[cc[l]]") + ";");
  w.close();  // row loop
  w.close();  // slot loop
  // Overwrite after the diagonal phase.
  w.line("for (std::int32_t l = 0; l < nb; ++l) y[scatter_rowno[b + l]] = " +
         sc.store("acc[l]") + ";");
  w.close();  // block loop
  w.close();  // function
}

std::string generate_cpu(const Meta& meta, const CpuCodeletOptions& opts) {
  const StorageCtx sc = make_storage_ctx(meta);
  CodeWriter w;
  w.line("// Generated by crsd::codegen — CRSD SpMV codelet for one matrix");
  w.line("// structure (" + itos((*meta.patterns).size()) +
         " diagonal pattern(s), mrows = " + itos(meta.mrows) + ",");
  w.line("// " + itos(meta.num_scatter_rows) +
         " scatter row(s)). Do not edit.");
  w.line("#include <cstdint>");
  w.line();
  w.line("using T = " + std::string(meta.type_name) + ";");
  if (sc.raw) {
    w.line("// Compact storage mode: value precision " +
           std::string(value_precision_name(meta.value_precision)) +
           ", scatter indices " +
           std::string(scatter_index_mode_name(meta.scol_mode)) + ".");
    w.line("using VT = " +
           std::string(meta.value_precision == ValuePrecision::kFloat32
                           ? "float"
                           : "T") +
           ";");
    if (sc.widen) w.line("using AT = double;");
  }
  w.line();
  w.line("#if defined(_MSC_VER) && !defined(__clang__)");
  w.line("#define CRSD_RESTRICT __restrict");
  w.line("#else");
  w.line("#define CRSD_RESTRICT __restrict__");
  w.line("#endif");
  w.line();
  w.open("static inline std::int32_t crsd_clampi(std::int32_t v, "
         "std::int32_t lo, std::int32_t hi)");
  w.line("return v < lo ? lo : (v > hi ? hi : v);");
  w.close();
  w.line();
  emit_cpu_diag(w, meta, opts, sc);
  w.line();
  emit_cpu_scatter(w, meta, opts, sc);
  return w.str();
}

std::string generate_opencl(const Meta& meta,
                            const OpenClCodeletOptions& opts) {
  const std::string T = meta.type_name;
  CodeWriter w;
  w.line("// Generated by crsd::codegen — OpenCL CRSD SpMV kernel (cf. the");
  w.line("// paper's Fig. 6). One work-group per row segment, mrows = " +
         itos(meta.mrows) + " work-items;");
  w.line("// indices are immediates, diagonals unrolled, adjacent groups");
  w.line("// staged through local memory.");
  if (T == std::string("double")) {
    w.line("#pragma OPENCL EXTENSION cl_khr_fp64 : enable");
  }
  w.open("__kernel void " + opts.kernel_name + "(__global const " + T +
         "* crsd_dia_val, __global const " + T + "* x, __global " + T +
         "* y, __global const " + T +
         "* scatter_val, __global const int* scatter_col, __global const "
         "int* scatter_rowno, __local " + T + "* xbuf)");
  w.line("const int group_id = get_group_id(0);");
  w.line("const int local_id = get_local_id(0);");
  w.line("const int row = group_id * " + itos(meta.mrows) + " + local_id;");
  const auto& patterns = *meta.patterns;
  w.open("switch (" + [&] {
    // Pattern selector: cumulative-segment compare chain folded into a
    // small expression (Σ NRS_i <= group_id < Σ NRS_{i+1}, §III-B).
    std::string expr = "0";
    for (std::size_t pi = 1; pi < patterns.size(); ++pi) {
      expr += " + (group_id >= " + itos((*meta.cum_segments)[pi]) + ")";
    }
    return expr;
  }() + ")");
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const auto& p = patterns[pi];
    const index_t seg0 = (*meta.cum_segments)[pi];
    const size64_t base = (*meta.val_offsets)[pi];
    const size64_t slots = p.slots_per_segment(meta.mrows);
    w.open("case " + itos(static_cast<std::int64_t>(pi)) +
           ": {  // " + pattern_to_string(p));
    if (p.offsets.empty()) {
      w.line("if (row < " + itos(meta.num_rows) + ") y[row] = 0;");
      w.line("break;");
      w.close();
      continue;
    }
    w.line(T + " sum = 0;");
    w.line("const int unit = " + itos(static_cast<std::int64_t>(base)) +
           " + (group_id - " + itos(seg0) + ") * " +
           itos(static_cast<std::int64_t>(slots)) + ";");
    for (const auto& grp : p.groups) {
      const bool staged = opts.use_local_memory &&
                          grp.type == GroupType::kAdjacent &&
                          grp.num_diagonals >= 2;
      if (staged) {
        const diag_offset_t first =
            p.offsets[static_cast<std::size_t>(grp.first_diagonal)];
        const index_t window = meta.mrows + grp.num_diagonals - 1;
        w.line("// adjacent group: stage the shared x window into local "
               "memory");
        w.open("for (int i = local_id; i < " + itos(window) + "; i += " +
               itos(meta.mrows) + ")");
        w.line("xbuf[i] = x[group_id * " + itos(meta.mrows) + " + i + " +
               itos(first) + "];");
        w.close();
        w.line("barrier(CLK_LOCAL_MEM_FENCE);");
        for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
          const index_t d = grp.first_diagonal + gd;
          w.line("sum += crsd_dia_val[unit + " +
                 itos(static_cast<std::int64_t>(d) * meta.mrows) +
                 " + local_id] * xbuf[local_id + " + itos(gd) + "];");
        }
        w.line("barrier(CLK_LOCAL_MEM_FENCE);");
      } else {
        for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
          const index_t d = grp.first_diagonal + gd;
          const diag_offset_t off = p.offsets[static_cast<std::size_t>(d)];
          w.line("sum += crsd_dia_val[unit + " +
                 itos(static_cast<std::int64_t>(d) * meta.mrows) +
                 " + local_id] * " + x_index_expr(meta, p, off, "row") + ";");
        }
      }
    }
    w.line("if (row < " + itos(meta.num_rows) + ") y[row] = sum;");
    w.line("break;");
    w.close();
  }
  w.close();  // switch
  if (meta.num_scatter_rows > 0) {
    const index_t nsr = meta.num_scatter_rows;
    w.line("// scatter rows: ELL side matrix, executed after the diagonal");
    w.line("// part; overwrites y for those rows (whole-row recompute).");
    w.line("const int sid = get_global_id(0);");
    w.open("if (sid < " + itos(nsr) + ")");
    w.line(T + " sum = 0;");
    for (index_t k = 0; k < meta.scatter_width; ++k) {
      const std::string slot =
          "sid + " + itos(static_cast<std::int64_t>(k) * nsr);
      w.line("{ const int c = scatter_col[" + slot +
             "]; if (c >= 0) sum += scatter_val[" + slot + "] * x[c]; }");
    }
    w.line("y[scatter_rowno[sid]] = sum;");
    w.close();
  }
  w.close();  // kernel
  return w.str();
}

template <Real T>
Meta make_meta(const CrsdMatrix<T>& m) {
  Meta meta;
  meta.num_rows = m.num_rows();
  meta.num_cols = m.num_cols();
  meta.mrows = m.mrows();
  meta.patterns = &m.patterns();
  meta.cum_segments = &m.cum_segments();
  meta.val_offsets = &m.pattern_value_offsets();
  meta.interior.reserve(m.patterns().size());
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    meta.interior.push_back(m.interior_segments(p));
  }
  meta.num_scatter_rows = m.num_scatter_rows();
  meta.scatter_width = m.scatter_width();
  meta.type_name = std::is_same_v<T, double> ? "double" : "float";
  meta.value_precision = m.value_precision();
  meta.scol_mode = m.scatter_index_mode();
  return meta;
}

}  // namespace

template <Real T>
std::string generate_cpu_codelet_source(const CrsdMatrix<T>& m,
                                        const CpuCodeletOptions& opts) {
  return generate_cpu(make_meta(m), opts);
}

template <Real T>
std::string generate_opencl_kernel_source(const CrsdMatrix<T>& m,
                                          const OpenClCodeletOptions& opts) {
  return generate_opencl(make_meta(m), opts);
}

template std::string generate_cpu_codelet_source<double>(
    const CrsdMatrix<double>&, const CpuCodeletOptions&);
template std::string generate_cpu_codelet_source<float>(
    const CrsdMatrix<float>&, const CpuCodeletOptions&);
template std::string generate_opencl_kernel_source<double>(
    const CrsdMatrix<double>&, const OpenClCodeletOptions&);
template std::string generate_opencl_kernel_source<float>(
    const CrsdMatrix<float>&, const OpenClCodeletOptions&);

}  // namespace crsd::codegen
