#include "suite_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/build_api.hpp"
#include "kernels/gpu_spmv.hpp"
#include "matrix/stats.hpp"

namespace crsd::bench {

const Cell& SuiteRow::cell(Format f) const {
  for (std::size_t i = 0; i < figure_formats().size(); ++i) {
    if (figure_formats()[i] == f) return cells[i];
  }
  throw Error("format not in figure set");
}

double SuiteRow::crsd_speedup_over(Format f) const {
  const Cell& base = cell(f);
  const Cell& crsd = cell(Format::kCrsd);
  if (base.oom || base.seconds <= 0 || crsd.seconds <= 0) return 0.0;
  return base.seconds / crsd.seconds;
}

SuiteOptions SuiteOptions::parse(int argc, char** argv) {
  SuiteOptions opts;
  if (const char* env = std::getenv("CRSD_BENCH_SCALE"); env != nullptr) {
    opts.scale = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      opts.scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--matrix") == 0 && i + 1 < argc) {
      opts.only_matrix = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mrows") == 0 && i + 1 < argc) {
      opts.mrows = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-local-memory") == 0) {
      opts.use_local_memory = false;
    } else if (std::strcmp(argv[i], "--interpreted") == 0) {
      opts.jit_codelet_model = false;
    }
  }
  CRSD_CHECK_MSG(opts.scale > 0 && opts.scale <= 1.0,
                 "scale must be in (0,1], got " << opts.scale);
  return opts;
}

gpusim::Counters scale_counters(const gpusim::Counters& c, double factor) {
  auto s = [factor](size64_t v) {
    return static_cast<size64_t>(double(v) * factor);
  };
  gpusim::Counters out;
  out.flops = s(c.flops);
  out.alu_slots = s(c.alu_slots);
  out.global_load_transactions = s(c.global_load_transactions);
  out.global_load_bytes = s(c.global_load_bytes);
  out.global_store_transactions = s(c.global_store_transactions);
  out.global_store_bytes = s(c.global_store_bytes);
  out.cache_hits = s(c.cache_hits);
  out.cache_misses = s(c.cache_misses);
  out.local_bytes = s(c.local_bytes);
  out.barriers = s(c.barriers);
  out.wavefronts = s(c.wavefronts);
  return out;
}

namespace {

/// Alternating timing rounds per sweep in time_interleaved.
constexpr int kSweepRounds = 5;

/// Full-size DIA footprint check against device memory (the paper's OOM
/// rows for af_*_k101 in double precision come from here: the scaled matrix
/// always fits, the published one does not).
template <Real T>
bool dia_oom_at_full_size(const MatrixSpec& spec,
                          const gpusim::DeviceSpec& dev) {
  const size64_t bytes =
      spec.full_num_diagonals * static_cast<size64_t>(spec.full_rows) *
      sizeof(T);
  return bytes > dev.global_mem_bytes;
}

}  // namespace

template <Real T>
std::vector<SuiteRow> run_gpu_suite(const SuiteOptions& opts) {
  std::vector<SuiteRow> rows;
  const gpusim::DeviceSpec dev_spec = gpusim::DeviceSpec::tesla_c2050();
  for (const MatrixSpec& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const Coo<double> base = spec.generate(opts.scale);
    const Coo<T> a = base.template cast<T>();
    const double factor = double(spec.full_nnz) / double(std::max<size64_t>(
                                                      a.nnz(), 1));

    SuiteRow row;
    row.id = spec.id;
    row.name = spec.name;
    row.scaled_rows = a.num_rows();
    row.scaled_nnz = a.nnz();

    std::vector<T> x(static_cast<std::size_t>(a.num_cols()), T(1));
    std::vector<T> y(static_cast<std::size_t>(a.num_rows()));

    for (Format f : figure_formats()) {
      Cell cell;
      const bool full_size_oom =
          f == Format::kDia && dia_oom_at_full_size<T>(spec, dev_spec);
      if (full_size_oom) {
        cell.oom = true;
        row.cells.push_back(cell);
        continue;
      }
      gpusim::Device dev(dev_spec);
      try {
        gpusim::LaunchResult r;
        if (f == Format::kCrsd) {
          CrsdConfig cfg;
          cfg.mrows = opts.mrows;
          const auto m = build(a, cfg);
          row.crsd_stats = m.stats();
          kernels::CrsdGpuOptions gpu_opts;
          gpu_opts.use_local_memory = opts.use_local_memory;
          gpu_opts.jit_codelet = opts.jit_codelet_model;
          r = kernels::gpu_spmv_crsd(dev, m, x.data(), y.data(), gpu_opts);
        } else {
          r = kernels::spmv(dev, f, a, x.data(), y.data());
        }
        // Extrapolate the trace to the published size and re-estimate.
        cell.counters = scale_counters(r.counters, factor);
        gpusim::LaunchConfig est;
        est.num_groups = 1;  // unused by the estimator
        est.group_size = 1;
        est.double_precision = std::is_same_v<T, double>;
        est.launches = r.launches;
        cell.seconds = gpusim::estimate_seconds(dev_spec, cell.counters, est);
        cell.gflops = 2.0 * double(spec.full_nnz) / cell.seconds / 1e9;
      } catch (const Error&) {
        cell.oom = true;  // runtime device OOM
      }
      row.cells.push_back(cell);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

template std::vector<SuiteRow> run_gpu_suite<double>(const SuiteOptions&);
template std::vector<SuiteRow> run_gpu_suite<float>(const SuiteOptions&);

void print_gflops_table(const std::vector<SuiteRow>& rows,
                        const std::string& title) {
  std::cout << title << "\n";
  std::vector<std::string> headers = {"#", "matrix"};
  for (Format f : figure_formats()) headers.emplace_back(format_name(f));
  Table t(std::move(headers));
  for (const SuiteRow& row : rows) {
    std::vector<std::string> cells = {std::to_string(row.id), row.name};
    for (const Cell& c : row.cells) {
      cells.push_back(c.oom ? "OOM" : Table::fmt(c.gflops));
    }
    t.add_row(std::move(cells));
  }
  t.print_text(std::cout);
}

void print_speedup_table(const std::vector<SuiteRow>& rows,
                         const std::string& title) {
  std::cout << title << "\n";
  Table t({"#", "matrix", "CRSD/DIA", "CRSD/ELL", "CRSD/CSR", "CRSD/HYB"});
  for (const SuiteRow& row : rows) {
    auto cell = [&](Format f) {
      const double s = row.crsd_speedup_over(f);
      return s <= 0 ? std::string("n/a (OOM)") : Table::fmt(s);
    };
    t.add_row({std::to_string(row.id), row.name, cell(Format::kDia),
               cell(Format::kEll), cell(Format::kCsr), cell(Format::kHyb)});
  }
  t.print_text(std::cout);
}

std::vector<double> time_interleaved(
    const std::vector<std::function<void()>>& sweeps) {
  std::vector<double> best(sweeps.size(),
                           std::numeric_limits<double>::infinity());
  for (int round = 0; round < kSweepRounds; ++round) {
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      best[i] = std::min(best[i], time_per_rep(sweeps[i]));
    }
  }
  return best;
}

SpeedupSummary summarize_speedup(const std::vector<SuiteRow>& rows, Format f) {
  SpeedupSummary s;
  double sum = 0;
  int n = 0;
  for (const SuiteRow& row : rows) {
    const double v = row.crsd_speedup_over(f);
    if (v <= 0) continue;
    s.max = std::max(s.max, v);
    sum += v;
    ++n;
  }
  s.avg = n > 0 ? sum / n : 0.0;
  return s;
}

}  // namespace crsd::bench
