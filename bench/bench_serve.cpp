// Serving-engine benchmark: deterministic open-loop mixed-tenant load
// through serve::ServeEngine, coalescing ON (max_batch = 8) vs OFF
// (max_batch = 1), on the task-graph runtime's virtual timeline — so the
// throughput ratio the CI gate asserts is noise-free on shared runners.
//
// The load generator is an open-loop simulation on a virtual clock:
// request arrivals are drawn from a seeded exponential process at ~4x the
// single-request service rate (measured by a probe request up front), the
// engine drains everything that has arrived each cycle, and the cycle's
// modeled makespan advances the clock. Requests arriving while a cycle is
// in flight pile up behind it, which is exactly the regime where
// coalescing wins: the next drain folds them into register-blocked SpMM
// batches that stream the value arrays once for up to eight right-hand
// sides. Both modes run at the engine's default exec lanes, so they model
// identical hardware and the only difference is batching. Per-request
// completion times come from the graph's virtual finish offsets; latency
// percentiles are exact (sorted), not bucketed.
//
// Every served result is compared bitwise against a fresh single-vector
// CrsdMatrix::spmv on the same x — the engine's determinism contract.
//
// Gate (CI perf-smoke runs this as an assertion): on the dense-band
// family the coalesced/uncoalesced throughput ratio must be >= 1.3 with
// a mean served batch size >= 4, and every result bitwise-identical;
// the binary exits non-zero otherwise.
//
// Writes BENCH_serve.json (path overridable via CRSD_BENCH_OUT).
//
// Usage: bench_serve [--scale S] [--mrows M]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "matrix/generators.hpp"
#include "serve/serve.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

constexpr double kGateMinRatio = 1.3;
constexpr double kGateMinMeanK = 4.0;

/// One tenant stream: which registered matrix its requests target.
struct Tenant {
  std::string name;
  serve::MatrixId id = -1;
};

struct Family {
  std::string name;
  bool gate_row = false;
  std::vector<Coo<double>> matrices;
  int tenants_per_matrix = 2;
  index_t requests = 256;
  std::uint64_t seed = 1;
};

/// One (family, mode) simulation outcome.
struct SimResult {
  index_t requests = 0;
  double total_seconds = 0.0;  ///< virtual time at which the last drain ends
  double throughput = 0.0;     ///< requests per virtual second
  double p50_us = 0.0, p99_us = 0.0;
  double mean_k = 0.0;  ///< mean served batch size over requests
  index_t batches = 0, singles = 0;
  bool all_bitwise = true;
};

std::vector<double> make_x(index_t n, int seed) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        1.0 + 0.001 * double((i * 31 + seed * 17) % 97);
  }
  return x;
}

double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto r = static_cast<std::size_t>(q * double(v.size() - 1) + 0.5);
  return v[std::min(r, v.size() - 1)];
}

/// Runs one family through the open-loop virtual-clock simulation at the
/// given max_batch. Default exec lanes in both modes: identical modeled
/// hardware, coalescing is the only variable.
SimResult run_sim(const Family& fam, index_t max_batch, ThreadPool& pool) {
  serve::ServeOptions so;
  so.max_batch = max_batch;
  so.max_queue_depth = 1u << 20;  // no admission shedding in the load sweep
  serve::ServeEngine eng(pool, so);

  std::vector<Tenant> tenants;
  for (std::size_t mi = 0; mi < fam.matrices.size(); ++mi) {
    const auto info = eng.register_matrix(fam.matrices[mi]);
    for (int t = 0; t < fam.tenants_per_matrix; ++t) {
      tenants.push_back({fam.name + "-t" +
                             std::to_string(mi * std::size_t(
                                                     fam.tenants_per_matrix) +
                                            std::size_t(t)),
                         info.id});
    }
  }

  // Probe: one request through an empty queue measures the single-vector
  // service time that calibrates the arrival rate (then discarded).
  double service_1 = 0.0;
  {
    const auto& m = eng.matrix(tenants[0].id);
    auto h = eng.submit(tenants[0].id, "probe", make_x(m.num_cols(), -1));
    const auto st = eng.drain();
    service_1 = st.makespan_seconds;
    (void)h;
  }
  const double mean_ia = service_1 / 4.0;  // ~4x overload: batches must form

  // Seeded exponential arrivals; identical across both modes.
  Rng rng(fam.seed);
  const auto n = static_cast<std::size_t>(fam.requests);
  std::vector<double> arrival(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.next_double();
    if (u < 1e-12) u = 1e-12;
    t += -mean_ia * std::log(u);
    arrival[i] = t;
  }

  SimResult r;
  r.requests = fam.requests;
  std::vector<double> latency_us;
  latency_us.reserve(n);
  double clock = 0.0;
  double sum_k = 0.0;
  std::size_t next = 0;
  while (next < n) {
    clock = std::max(clock, arrival[next]);
    struct InFlight {
      serve::RequestHandle h;
      std::size_t idx;
    };
    std::vector<InFlight> cycle;
    while (next < n && arrival[next] <= clock) {
      const Tenant& tn = tenants[next % tenants.size()];
      const auto& m = eng.matrix(tn.id);
      cycle.push_back({eng.submit(tn.id, tn.name,
                                  make_x(m.num_cols(), int(next))),
                       next});
      ++next;
    }
    const auto st = eng.drain();
    r.batches += st.batches;
    r.singles += st.singles;
    for (const auto& f : cycle) {
      sum_k += double(f.h.served_batch_k());
      latency_us.push_back(
          (clock + f.h.virtual_finish_seconds() - arrival[f.idx]) * 1e6);
      // Bitwise contract: the served y must equal a fresh single-vector
      // spmv on the same x.
      const Tenant& tn = tenants[f.idx % tenants.size()];
      const auto& m = eng.matrix(tn.id);
      const auto x = make_x(m.num_cols(), int(f.idx));
      std::vector<double> y_ref(static_cast<std::size_t>(m.num_rows()));
      m.spmv(x.data(), y_ref.data());
      if (f.h.result() != y_ref) r.all_bitwise = false;
    }
    clock += st.makespan_seconds;
  }
  r.total_seconds = clock;
  r.throughput = clock > 0.0 ? double(fam.requests) / clock : 0.0;
  r.p50_us = exact_quantile(latency_us, 0.50);
  r.p99_us = exact_quantile(latency_us, 0.99);
  r.mean_k = double(fam.requests) > 0 ? sum_k / double(fam.requests) : 0.0;
  return r;
}

/// Admission-control section: a burst past the watermark must shed load
/// with kServeOverload and leave the queue usable.
struct AdmissionResult {
  std::size_t watermark = 16;
  index_t submitted = 0, rejected = 0, served = 0;
  bool diagnostics_ok = true;
};

AdmissionResult run_admission(const Coo<double>& a, ThreadPool& pool) {
  AdmissionResult r;
  serve::ServeOptions so;
  so.max_queue_depth = r.watermark;
  serve::ServeEngine eng(pool, so);
  const auto info = eng.register_matrix(a);
  std::vector<serve::RequestHandle> handles;
  for (index_t i = 0; i < 24; ++i) {
    handles.push_back(
        eng.submit(info.id, "burst", make_x(a.num_cols(), int(i))));
  }
  r.submitted = index_t(handles.size());
  for (const auto& h : handles) {
    if (h.status() == serve::RequestStatus::kRejected) {
      ++r.rejected;
      if (h.diagnostic().code != check::Code::kServeOverload) {
        r.diagnostics_ok = false;
      }
    }
  }
  eng.drain();
  for (const auto& h : handles) {
    if (h.status() == serve::RequestStatus::kDone) ++r.served;
  }
  return r;
}

void write_json(const std::vector<Family>& fams,
                const std::vector<SimResult>& on,
                const std::vector<SimResult>& off, const AdmissionResult& adm,
                double gate_ratio, double gate_mean_k, bool all_bitwise,
                bool gate_pass, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"serve\",\n  \"precision\": \"double\",\n"
      << "  \"exec_lanes\": " << serve::ServeOptions{}.exec_lanes
      << ",\n  \"overload_factor\": 4.0,\n"
      << "  \"families\": [\n";
  for (std::size_t i = 0; i < fams.size(); ++i) {
    const auto ratio =
        off[i].throughput > 0.0 ? on[i].throughput / off[i].throughput : 0.0;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"gate_row\": %s, \"requests\": %lld, "
        "\"coalesced\": {\"throughput_rps\": %.4e, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f, \"mean_batch_k\": %.2f, \"batches\": %lld, "
        "\"singles\": %lld}, "
        "\"uncoalesced\": {\"throughput_rps\": %.4e, \"p50_us\": %.2f, "
        "\"p99_us\": %.2f}, "
        "\"throughput_ratio\": %.3f, \"all_bitwise\": %s}%s\n",
        fams[i].name.c_str(), fams[i].gate_row ? "true" : "false",
        static_cast<long long>(fams[i].requests), on[i].throughput,
        on[i].p50_us, on[i].p99_us, on[i].mean_k,
        static_cast<long long>(on[i].batches),
        static_cast<long long>(on[i].singles), off[i].throughput,
        off[i].p50_us, off[i].p99_us, ratio,
        on[i].all_bitwise && off[i].all_bitwise ? "true" : "false",
        i + 1 < fams.size() ? "," : "");
    out << buf;
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  ],\n  \"admission\": {\"watermark\": %lld, \"submitted\": %lld, "
      "\"rejected\": %lld, \"served\": %lld, \"diagnostics_ok\": %s},\n"
      "  \"summary\": {\"gate_family\": \"dense-band\", "
      "\"throughput_ratio\": %.3f, \"gate_min_ratio\": %.2f, "
      "\"mean_batch_k\": %.2f, \"gate_min_mean_k\": %.1f, "
      "\"all_bitwise\": %s, \"gate_pass\": %s}\n}\n",
      static_cast<long long>(adm.watermark),
      static_cast<long long>(adm.submitted),
      static_cast<long long>(adm.rejected),
      static_cast<long long>(adm.served),
      adm.diagnostics_ok ? "true" : "false", gate_ratio, kGateMinRatio,
      gate_mean_k, kGateMinMeanK, all_bitwise ? "true" : "false",
      gate_pass ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const auto opts = SuiteOptions::parse(argc, argv);
  (void)opts;

  std::printf("== Serving engine: coalesced SpMM batches vs per-request "
              "SpMV under open-loop load (virtual timeline) ==\n\n");

  std::vector<Family> fams;
  {
    // Gate family: every tenant shares one dense band — the pure
    // coalescing regime the paper's register-blocked SpMM sweep targets.
    Family f;
    f.name = "dense-band";
    f.gate_row = true;
    f.matrices.push_back(dense_band(2048, 8));
    f.tenants_per_matrix = 4;
    f.requests = 256;
    f.seed = 11;
    fams.push_back(std::move(f));
  }
  {
    // Mixed tenants across three structures, one with scatter points:
    // batches of different matrices share the dispatch graph.
    Family f;
    f.name = "mixed-tenant";
    Rng rng(5);
    f.matrices.push_back(dense_band(1536, 6));
    f.matrices.push_back(dense_band(1024, 12));
    Coo<double> c = dense_band(768, 4);
    inject_scatter(c, 200, rng);
    f.matrices.push_back(std::move(c));
    f.tenants_per_matrix = 2;
    f.requests = 240;
    f.seed = 23;
    fams.push_back(std::move(f));
  }

  ThreadPool pool(4);
  std::vector<SimResult> on, off;
  std::printf("%-14s %9s | %12s %12s %7s | %9s %9s %9s\n", "family", "reqs",
              "coal[rps]", "uncoal[rps]", "ratio", "mean_k", "p99c[us]",
              "p99u[us]");
  for (const auto& f : fams) {
    on.push_back(run_sim(f, 8, pool));
    off.push_back(run_sim(f, 1, pool));
    const auto& a = on.back();
    const auto& b = off.back();
    const double ratio = b.throughput > 0.0 ? a.throughput / b.throughput : 0;
    std::printf("%-14s %9lld | %12.4e %12.4e %6.2fx | %9.2f %9.1f %9.1f%s\n",
                f.name.c_str(), static_cast<long long>(f.requests),
                a.throughput, b.throughput, ratio, a.mean_k, a.p99_us,
                b.p99_us,
                a.all_bitwise && b.all_bitwise ? "" : "  (bitwise FAIL)");
  }

  const auto adm = run_admission(dense_band(512, 4), pool);
  std::printf("\nadmission control: %lld submitted at watermark %lld -> "
              "%lld rejected (kServeOverload), %lld served after drain\n",
              static_cast<long long>(adm.submitted),
              static_cast<long long>(adm.watermark),
              static_cast<long long>(adm.rejected),
              static_cast<long long>(adm.served));

  bool all_bitwise = true;
  double gate_ratio = 0.0, gate_mean_k = 0.0;
  for (std::size_t i = 0; i < fams.size(); ++i) {
    all_bitwise = all_bitwise && on[i].all_bitwise && off[i].all_bitwise;
    if (fams[i].gate_row) {
      gate_ratio =
          off[i].throughput > 0.0 ? on[i].throughput / off[i].throughput : 0;
      gate_mean_k = on[i].mean_k;
    }
  }
  const bool admission_ok = adm.rejected > 0 && adm.diagnostics_ok &&
                            adm.served + adm.rejected == adm.submitted;
  const bool gate_pass = all_bitwise && admission_ok &&
                         gate_ratio >= kGateMinRatio &&
                         gate_mean_k >= kGateMinMeanK;
  std::printf("\ndense-band gate: throughput ratio %.2fx (gate >= %.2fx), "
              "mean batch k %.2f (gate >= %.1f)\n",
              gate_ratio, kGateMinRatio, gate_mean_k, kGateMinMeanK);

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_serve.json";
  write_json(fams, on, off, adm, gate_ratio, gate_mean_k, all_bitwise,
             gate_pass, out_path);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_bitwise) {
    std::printf("FAIL: a served result diverged bitwise from the "
                "single-vector reference\n");
    return 1;
  }
  if (!admission_ok) {
    std::printf("FAIL: admission control did not shed or account for the "
                "burst correctly\n");
    return 1;
  }
  if (!gate_pass) {
    std::printf("FAIL: coalescing throughput or batch-size gate violated\n");
    return 1;
  }
  return 0;
}
