// Partitioned-build benchmark + CI gate on one simulated device: on the
// partially diagonal family — a diagonal-dominant stripe stacked over ragged
// scattered rows, the shape the paper's single-format CRSD punts on — the
// partitioned container (one region whose mrows wins the autotuner's
// measured race, launched on the same single device as the baselines) must
// be at least as fast as the best single-format launch on every member.
// The race's candidates include the default configuration the CRSD
// baseline runs, so a slower member means the race or the launch is wrong.
// Everything runs on the simulator's deterministic model, so the gate is
// noise-free, and every value the JSON holds is a modeled time or a count:
// CI diffs it against the committed BENCH_partition.json, so a change that
// moves a plan, a trial count or a modeled time must re-record it.
//
// Also asserted per member (CI runs the binary as one assertion):
//  * native storage: the launch's y is bitwise-identical to the
//    partitioned CPU reference, which itself matches the COO reference;
//  * mixed precision (fp32 values + narrow indices): tolerance-gated
//    against the fp64 reference;
//  * warm-run contract: rebuilding from the same persistent tuning cache
//    reuses the stored winner with zero measured trials.
//
// Writes BENCH_partition.json (path overridable via CRSD_BENCH_OUT).
//
// Usage: bench_partition [--mrows M]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kernels/partitioned_spmv.hpp"
#include "matrix/generators.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

constexpr double kGateMinSpeedup = 1.00;
constexpr double kMixedPrecisionRelTol = 5e-4;  // fp32 values on the stripe

/// Family member: tridiagonal-plus-band top stripe over a ragged
/// scattered-row bottom stripe. Deterministic (fixed seed per member).
struct FamilySpec {
  const char* name;
  index_t top_rows;
  index_t bottom_rows;
  index_t band;          ///< extra diagonal pair at +/- band in the stripe
  index_t max_row_nnz;   ///< ragged bottom widths in [4, max_row_nnz)
  std::uint64_t seed;
};

Coo<double> partially_diagonal(const FamilySpec& fs) {
  Rng rng(fs.seed);
  return crsd::partially_diagonal(fs.top_rows, fs.bottom_rows, fs.band,
                                  fs.max_row_nnz, rng);
}

struct PartitionRow {
  std::string name;
  index_t rows = 0;
  size64_t nnz = 0;
  double t_crsd = 0.0, t_csr = 0.0, t_ell = 0.0, t_hyb = 0.0;
  Format best_single = Format::kCrsd;
  double t_best = 0.0;
  double t_part = 0.0;  ///< partitioned launch on one device
  std::size_t regions = 0;
  std::string plan;
  bool bitwise_ok = false;
  index_t cold_trials = 0;
  index_t warm_trials = 0;
  bool warm_hit = false;

  double speedup() const { return t_part > 0.0 ? t_best / t_part : 0.0; }
};

/// One single-format baseline launch of `f`, pinned to the default CRSD
/// config for the kCrsd row (the partitioned build gets the same base).
double baseline_seconds(Format f, const Coo<double>& a,
                        const std::vector<double>& x) {
  gpusim::Device dev{gpusim::DeviceSpec{}};
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  kernels::SpmvOptions opts;
  opts.crsd_config = CrsdConfig{};
  return kernels::spmv(dev, f, a, x.data(), y.data(), opts).seconds;
}

PartitionRow run_member(const FamilySpec& fs, const std::string& cache_dir,
                        ThreadPool& pool) {
  PartitionRow r;
  r.name = fs.name;
  const auto a = partially_diagonal(fs);
  r.rows = a.num_rows();
  r.nnz = a.nnz();

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * double(i % 97);
  }

  // Best single-format container over the whole matrix.
  r.t_crsd = baseline_seconds(Format::kCrsd, a, x);
  r.t_csr = baseline_seconds(Format::kCsr, a, x);
  r.t_ell = baseline_seconds(Format::kEll, a, x);
  r.t_hyb = baseline_seconds(Format::kHyb, a, x);
  r.t_best = r.t_crsd;
  r.best_single = Format::kCrsd;
  for (auto [t, f] : {std::pair{r.t_csr, Format::kCsr},
                      std::pair{r.t_ell, Format::kEll},
                      std::pair{r.t_hyb, Format::kHyb}}) {
    if (t < r.t_best) {
      r.t_best = t;
      r.best_single = f;
    }
  }

  // Cold partitioned build: races the mrows candidates with measured
  // trials and publishes the tuning-cache entry.
  BuildOptions opts;
  opts.cache_dir = cache_dir;
  kernels::PlannedPartition cold;
  const auto pm = build_partitioned(a, opts, &pool, &cold);
  r.cold_trials = cold.measured_trials;
  r.regions = pm.parts().size();
  r.plan = pm.summary();

  // Warm rebuild from the cache just published: zero measured trials.
  kernels::PlannedPartition warm;
  const auto pm_warm = build_partitioned(a, opts, &pool, &warm);
  r.warm_trials = warm.measured_trials;
  r.warm_hit = warm.cache_hit;

  // Partitioned launch on one device, like the baselines.
  gpusim::Device dev{gpusim::DeviceSpec{}};
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()), -1.0);
  r.t_part = kernels::spmv(dev, pm, x.data(), y.data(), {}, &pool).seconds;

  // Native storage: bitwise parity with the partitioned CPU reference.
  std::vector<double> y_ref(y.size(), -2.0);
  pm.spmv(x.data(), y_ref.data());
  r.bitwise_ok = y == y_ref;
  return r;
}

/// Mixed-precision leg: fp32 values + narrow scatter indices, tolerance-gated
/// against the fp64 COO reference.
bool mixed_precision_ok(const FamilySpec& fs, const std::string& cache_dir,
                        ThreadPool& pool) {
  const auto a = partially_diagonal(fs);
  BuildOptions opts;
  opts.cache_dir = cache_dir;
  opts.config.storage = {ValuePrecision::kFloat32, true};
  const auto pm = build_partitioned(a, opts, &pool);

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * double(i % 97);
  }
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> want(y.size());
  gpusim::Device dev{gpusim::DeviceSpec{}};
  kernels::spmv(dev, pm, x.data(), y.data(), {}, &pool);
  a.spmv_reference(x.data(), want.data());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (std::abs(y[i] - want[i]) >
        kMixedPrecisionRelTol * (1.0 + std::abs(want[i]))) {
      std::printf("mixed-precision row %zu: got %.9e want %.9e\n", i, y[i],
                  want[i]);
      return false;
    }
  }
  return true;
}

void write_json(const std::vector<PartitionRow>& rows, double geomean,
                double min_speedup, bool all_bitwise, bool warm_ok,
                bool mixed_ok, bool gate_pass, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"partition\",\n  \"precision\": \"double\",\n"
      << "  \"device\": \"default gpusim spec\",\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"rows\": %lld, \"nnz\": %llu, "
        "\"t_crsd\": %.4e, \"t_csr\": %.4e, \"t_ell\": %.4e, "
        "\"t_hyb\": %.4e, \"best_single\": \"%s\", \"t_partitioned\": %.4e, "
        "\"regions\": %zu, "
        "\"speedup\": %.3f, \"bitwise_ok\": %s, \"cold_trials\": %lld, "
        "\"warm_trials\": %lld, \"plan\": \"%s\"}%s\n",
        r.name.c_str(), static_cast<long long>(r.rows),
        static_cast<unsigned long long>(r.nnz), r.t_crsd, r.t_csr, r.t_ell,
        r.t_hyb, format_name(r.best_single), r.t_part,
        r.regions, r.speedup(), r.bitwise_ok ? "true" : "false",
        static_cast<long long>(r.cold_trials),
        static_cast<long long>(r.warm_trials), r.plan.c_str(),
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"summary\": {\"geomean_speedup\": %.3f, "
                "\"min_speedup\": %.3f, \"gate_min_speedup\": %.2f, "
                "\"all_bitwise\": %s, "
                "\"warm_zero_trials\": %s, \"mixed_precision_ok\": %s, "
                "\"gate_pass\": %s}\n}\n",
                geomean, min_speedup, kGateMinSpeedup,
                all_bitwise ? "true" : "false", warm_ok ? "true" : "false",
                mixed_ok ? "true" : "false", gate_pass ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  namespace fs = std::filesystem;
  (void)SuiteOptions::parse(argc, argv);

  std::printf("== Autotuned partitioned SpMV vs best single-format launch, "
              "one device (modeled) ==\n\n");

  // A scratch tuning cache, so the cold/warm contract is measured from a
  // known-empty state every run; removed before exit.
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("crsd-bench-partition-" +
       std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(cache_dir);
  fs::create_directories(cache_dir);

  const std::vector<FamilySpec> family = {
      {"pd_band_heavy", 24576, 6144, 24, 48, 11},
      {"pd_balanced", 16384, 8192, 16, 40, 12},
      {"pd_scatter_heavy", 12288, 12288, 8, 56, 13},
      {"pd_wide_tail", 20480, 4096, 32, 64, 14},
      {"pd_narrow_tail", 28672, 4096, 12, 32, 15},
  };

  ThreadPool pool(4);
  std::vector<PartitionRow> rows;
  std::printf("%-18s %9s %10s | %9s %9s %9s %9s | %9s %4s %7s %5s\n",
              "matrix", "rows", "nnz", "crsd[s]", "csr[s]", "ell[s]",
              "hyb[s]", "part[s]", "reg", "speedup", "warm");
  for (const auto& fsp : family) {
    rows.push_back(run_member(fsp, cache_dir.string(), pool));
    const auto& r = rows.back();
    std::printf("%-18s %9lld %10llu | %9.3e %9.3e %9.3e %9.3e | %9.3e %4zu "
                "%6.2fx %5s%s\n",
                r.name.c_str(), static_cast<long long>(r.rows),
                static_cast<unsigned long long>(r.nnz), r.t_crsd, r.t_csr,
                r.t_ell, r.t_hyb, r.t_part, r.regions, r.speedup(),
                r.warm_trials == 0 && r.warm_hit ? "hit" : "MISS",
                r.bitwise_ok ? "" : "  (bitwise FAIL)");
  }

  double log_sum = 0.0;
  double min_speedup = rows.empty() ? 0.0 : rows.front().speedup();
  bool all_bitwise = true;
  bool warm_ok = true;
  for (const auto& r : rows) {
    log_sum += std::log(std::max(r.speedup(), 1e-300));
    min_speedup = std::min(min_speedup, r.speedup());
    all_bitwise = all_bitwise && r.bitwise_ok;
    warm_ok = warm_ok && r.warm_trials == 0 && r.warm_hit &&
              r.cold_trials > 0;
  }
  const double geomean =
      rows.empty() ? 0.0 : std::exp(log_sum / double(rows.size()));

  const bool mixed_ok = mixed_precision_ok(family.front(),
                                           cache_dir.string(), pool);
  fs::remove_all(cache_dir);

  const bool gate_pass = min_speedup >= kGateMinSpeedup && all_bitwise &&
                         warm_ok && mixed_ok;
  std::printf("\nspeedup vs best single format on one device: min %.3fx "
              "(gate >= %.2fx on every member), geomean %.3fx; bitwise %s; "
              "warm cache %s; mixed precision %s\n",
              min_speedup, kGateMinSpeedup, geomean,
              all_bitwise ? "ok" : "FAIL", warm_ok ? "ok (0 trials)" : "FAIL",
              mixed_ok ? "ok" : "FAIL");

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path = out_env != nullptr && *out_env != '\0'
                                   ? out_env
                                   : "BENCH_partition.json";
  write_json(rows, geomean, min_speedup, all_bitwise, warm_ok, mixed_ok,
             gate_pass, out_path);
  std::printf("wrote %s\n", out_path.c_str());

  if (!gate_pass) {
    std::printf("FAIL: partition gate\n");
    return 1;
  }
  return 0;
}
