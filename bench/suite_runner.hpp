// Shared infrastructure for the figure/table benches: runs the 23-matrix
// suite through the simulated Tesla C2050 in every storage format and
// extrapolates the event counters to the published matrix sizes, so the
// reported GFLOPS correspond to full-size runs (where kernel-launch overhead
// amortizes) even though the matrices are generated at reduced scale.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/crsd_matrix.hpp"
#include "formats/format.hpp"
#include "gpusim/executor.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd::bench {

/// Formats in the order the paper's figures plot them.
inline const std::vector<Format>& figure_formats() {
  static const std::vector<Format> formats = {
      Format::kDia, Format::kEll, Format::kCsr, Format::kHyb, Format::kCrsd};
  return formats;
}

/// One (matrix, format) measurement.
struct Cell {
  double gflops = 0.0;
  double seconds = 0.0;  ///< full-size-equivalent kernel time
  bool oom = false;      ///< format does not fit device memory at full size
  gpusim::Counters counters;  ///< full-size-extrapolated counters
};

/// One suite matrix across all formats.
struct SuiteRow {
  int id = 0;
  std::string name;
  index_t scaled_rows = 0;
  size64_t scaled_nnz = 0;
  std::vector<Cell> cells;  ///< indexed like figure_formats()
  CrsdStats crsd_stats;

  const Cell& cell(Format f) const;

  /// CRSD speedup over `f` (paper Figs. 9/10); 0 when `f` was OOM.
  double crsd_speedup_over(Format f) const;
};

/// Benchmark configuration, parsed from argv/environment.
struct SuiteOptions {
  double scale = 0.05;     ///< structure-preserving matrix scale
  index_t mrows = 64;      ///< CRSD row segment size
  bool use_local_memory = true;
  bool jit_codelet_model = true;
  std::optional<int> only_matrix;  ///< restrict to one suite id

  /// Reads --scale/--matrix/--mrows plus CRSD_BENCH_SCALE.
  static SuiteOptions parse(int argc, char** argv);
};

/// Runs the whole suite at one precision. T is float or double.
template <Real T>
std::vector<SuiteRow> run_gpu_suite(const SuiteOptions& opts);

/// Scales every counter by `factor` (structure-preserving extrapolation).
gpusim::Counters scale_counters(const gpusim::Counters& c, double factor);

/// Prints the standard per-matrix GFLOPS table for one precision.
void print_gflops_table(const std::vector<SuiteRow>& rows,
                        const std::string& title);

/// Prints the CRSD-speedup table (Figs. 9/10 layout).
void print_speedup_table(const std::vector<SuiteRow>& rows,
                         const std::string& title);

/// Host seconds per call of each sweep: five rounds, each timing every
/// sweep once with time_per_rep in order, keeping each sweep's minimum.
/// Sweeps that a bench divides by one another then see the same host state,
/// so one noisy burst cannot land on one side of a ratio only.
std::vector<double> time_interleaved(
    const std::vector<std::function<void()>>& sweeps);

/// Max/average of CRSD speedup over `f`, skipping OOM cells.
struct SpeedupSummary {
  double max = 0.0;
  double avg = 0.0;
};
SpeedupSummary summarize_speedup(const std::vector<SuiteRow>& rows, Format f);

}  // namespace crsd::bench
