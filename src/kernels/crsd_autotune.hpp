// CRSD configuration auto-tuner, in the spirit of OSKI's install-time
// search (the paper's related work): because CRSD construction exposes real
// knobs — row segment size, idle-section fill/break thresholds, local-memory
// staging — and because the SpMV cost of a candidate is cheap to evaluate on
// the simulated device, the best configuration for a matrix can be searched
// instead of guessed.
//
// Three things keep the search cheap:
//
//  * Concurrency: candidate builds and trial launches are independent, so
//    they run as dynamic tasks on a ThreadPool. Each trial simulates on a
//    private gpusim::Device (the device object carries allocation state)
//    with no simulation-side pool — the model derives seconds from event
//    counters, so concurrent evaluation changes nothing but wall clock.
//  * Cost-model pruning: the static kernel-access analyzer
//    (analysis/analyze.hpp) derives a candidate's launch counters from its
//    metadata alone and the simulator's timing model turns them into
//    predicted seconds (perf::predict_crsd_spmv_seconds, GPU-counter
//    overload) — no trial launch, no value streams touched. The prediction
//    is on the target device's scale and exact for the local-memory
//    geometry it models, so candidates predicted slower than `prune_margin`
//    times the best prediction can be skipped with confidence.
//  * A persistent cache: results are stored on disk keyed by a structural
//    fingerprint of the matrix (diagonal population histogram + dimensions,
//    crsd::structure_hash) plus device, precision, and search-space
//    descriptors. Re-ingesting a matrix — or a value-updated revision of
//    it, the classic OSKI workload — completes with zero measured trials.
//    Entries publish by write-to-temp + atomic rename (the JIT disk
//    cache's discipline), so concurrent tuners never read a torn entry;
//    unparseable entries are treated as misses and overwritten.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "common/hash.hpp"
#include "core/builder.hpp"
#include "core/inspect.hpp"
#include "kernels/crsd_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/cpu_model.hpp"

namespace crsd::kernels {

/// Candidate grid. Values of mrows that are not multiples of the device's
/// wavefront size are skipped (the §III-B constraint).
struct AutotuneSpace {
  std::vector<index_t> mrows = {32, 64, 128, 256};
  std::vector<index_t> fill_max_gap_segments = {0, 1, 4};
  std::vector<double> live_min_fill = {0.25, 0.5};
  std::vector<bool> use_local_memory = {true, false};
};

/// Search policy. The defaults give the fast path (prune + cache); the
/// legacy autotune_crsd overload requests the exhaustive reference search.
struct AutotuneOptions {
  /// Skip measuring candidates whose roofline prediction exceeds
  /// prune_margin x the best prediction. Pruned trials appear in
  /// AutotuneResult::trials with measured == false and infinite seconds.
  bool prune_with_model = true;
  double prune_margin = 1.5;

  /// Consult/update the persistent tuning cache.
  bool use_cache = true;
  /// Cache directory; empty resolves $CRSD_TUNE_CACHE, then
  /// <tmp>/crsd-tune-cache.
  std::string cache_dir;

  /// Pool for concurrent candidate builds and trial launches; null runs
  /// serially. The result is identical either way — trials land in fixed
  /// grid slots and simulated seconds are counter-derived.
  ThreadPool* pool = nullptr;

  /// Storage compaction applied to every candidate build. Part of the cache
  /// key: an fp32 or narrow-index tuning run must not reuse (or overwrite)
  /// the entry a full-precision run stored for the same structure — the
  /// byte traffic, and therefore the winning configuration, can differ.
  StorageOptions storage = {};
};

struct AutotuneTrial {
  CrsdConfig config;
  bool local_memory = true;
  /// Simulated SpMV seconds; +infinity when the trial was pruned unmeasured.
  double seconds = 0.0;
  /// Static prediction the pruning ranked this candidate by: the analyzer's
  /// replayed launch counters through the device timing model (exact for
  /// the default local-memory geometry on a fresh device).
  double predicted_seconds = 0.0;
  bool measured = true;
  CrsdStats stats;
};

struct AutotuneResult {
  CrsdConfig best_config;
  bool best_local_memory = true;
  double best_seconds = 0.0;
  std::vector<AutotuneTrial> trials;  ///< every candidate, measured or pruned
  index_t measured_trials = 0;
  index_t pruned_trials = 0;
  /// True when the result came from the persistent cache (trials is empty
  /// and nothing was measured).
  bool cache_hit = false;
  /// Cache entry name (hash over structure/device/precision/space).
  std::string cache_key;
  /// Mean |predicted - measured| / measured over the measured trials after
  /// normalizing both sides by their minima. The static prediction is on
  /// the device's own scale (and exact for the use_local_memory=true
  /// geometry), so this is near zero; it stays normalized because one
  /// prediction per config is compared against both local-memory variants.
  double model_rel_error = 0.0;

  /// One-line human-readable report: measured vs pruned counts, cache
  /// disposition, winning configuration, model error.
  std::string summary() const {
    std::ostringstream os;
    os << "autotune: ";
    if (cache_hit) {
      os << "cache hit (" << cache_key << "), 0 trials measured";
    } else {
      os << measured_trials << " measured, " << pruned_trials
         << " pruned by cost model";
      if (!cache_key.empty()) os << ", cache miss (" << cache_key << ")";
      os << ", model rel error " << model_rel_error * 100.0 << "%";
    }
    os << "; best mrows=" << best_config.mrows
       << " gap=" << best_config.fill_max_gap_segments
       << " min_fill=" << best_config.live_min_fill
       << " local=" << (best_local_memory ? 1 : 0) << " @ " << best_seconds
       << " s";
    return os.str();
  }
};

namespace detail {

inline std::string tune_cache_dir(const AutotuneOptions& opts) {
  if (!opts.cache_dir.empty()) return opts.cache_dir;
  if (const char* dir = std::getenv("CRSD_TUNE_CACHE");
      dir != nullptr && *dir != '\0') {
    return dir;
  }
  return (std::filesystem::temp_directory_path() / "crsd-tune-cache")
      .string();
}

/// Serialized search inputs; hashing this string yields the cache key, so
/// any change to the space, device, precision, matrix structure, or pruning
/// policy keys a different entry.
template <Real T>
std::string tune_key_string(const gpusim::DeviceSpec& spec, const Coo<T>& a,
                            const AutotuneSpace& space,
                            const AutotuneOptions& opts) {
  std::ostringstream os;
  os << "crsd-tune-v1|dev=" << spec.name << "|wf=" << spec.wavefront_size
     << "|fp=" << (std::is_same_v<T, double> ? "f64" : "f32")
     << "|vp=" << value_precision_name(opts.storage.value_precision)
     << "|ix=" << (opts.storage.narrow_scatter_indices ? "narrow" : "i32")
     << "|shash=" << fnv1a64_hex(std::to_string(structure_hash(a)));
  os << "|mrows=";
  for (index_t v : space.mrows) os << v << ',';
  os << "|gap=";
  for (index_t v : space.fill_max_gap_segments) os << v << ',';
  os << "|fill=";
  for (double v : space.live_min_fill) os << v << ',';
  os << "|local=";
  for (bool v : space.use_local_memory) os << (v ? 1 : 0) << ',';
  if (opts.prune_with_model) os << "|prune=" << opts.prune_margin;
  return os.str();
}

/// Reads a cached best configuration. Returns false — a miss — on absent,
/// torn, or otherwise unparseable entries; the caller re-tunes and the
/// store below replaces the bad entry.
inline bool tune_cache_load(const std::string& path, CrsdConfig& cfg,
                            bool& local_memory, double& seconds) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string header;
  if (!std::getline(in, header) || header != "crsd-tune-v1") return false;
  index_t mrows = 0, gap = 0;
  double min_fill = -1.0;
  int local = -1;
  double best_seconds = -1.0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "mrows") ls >> mrows;
    else if (key == "gap") ls >> gap;
    else if (key == "min_fill") ls >> min_fill;
    else if (key == "local") ls >> local;
    else if (key == "seconds") ls >> best_seconds;
    if (ls.fail()) return false;
  }
  if (mrows < 1 || gap < 0 || min_fill < 0.0 || min_fill > 1.0 ||
      (local != 0 && local != 1) || !(best_seconds > 0.0)) {
    return false;
  }
  cfg = CrsdConfig{};
  cfg.mrows = mrows;
  cfg.fill_max_gap_segments = gap;
  cfg.live_min_fill = min_fill;
  local_memory = local == 1;
  seconds = best_seconds;
  return true;
}

/// Publishes a cache entry: write a private temp file, then atomically
/// rename it over the canonical name (same discipline as the JIT disk
/// cache — concurrent tuners each publish a complete entry, last one
/// wins, readers never see a torn file). Best-effort: a read-only cache
/// directory degrades to "always miss", never to an error.
inline void tune_cache_store(const std::string& dir, const std::string& path,
                             const CrsdConfig& cfg, bool local_memory,
                             double seconds) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return;
  static std::atomic<unsigned> attempt_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(attempt_counter.fetch_add(1));
  {
    std::ofstream out(tmp);
    out << "crsd-tune-v1\n";
    out << "mrows " << cfg.mrows << '\n';
    out << "gap " << cfg.fill_max_gap_segments << '\n';
    std::ostringstream fill;
    fill.precision(17);
    fill << cfg.live_min_fill;
    out << "min_fill " << fill.str() << '\n';
    out << "local " << (local_memory ? 1 : 0) << '\n';
    std::ostringstream secs;
    secs.precision(17);
    secs << seconds;
    out << "seconds " << secs.str() << '\n';
    out.flush();
    if (!out.good()) {
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

/// Runs independent closures — on the pool when one is given, serially
/// otherwise.
inline void run_trial_tasks(ThreadPool* pool,
                            const std::vector<std::function<void()>>& tasks) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->run_tasks(tasks);
  } else {
    for (const auto& t : tasks) t();
  }
}

/// Cache entry name for a (structure, device, precision, space) tuple.
template <Real T>
std::string tune_cache_key(const gpusim::DeviceSpec& spec, const Coo<T>& a,
                           const AutotuneSpace& space,
                           const AutotuneOptions& opts) {
  return "tune_" + fnv1a64_hex(tune_key_string(spec, a, space, opts));
}

}  // namespace detail

/// A resolved persistent-cache entry: the winning configuration a previous
/// autotune run stored for this matrix structure on this device.
struct CachedTuning {
  CrsdConfig config;
  bool local_memory = true;
  double seconds = 0.0;   ///< simulated SpMV seconds of the cached winner
  std::string key;        ///< cache entry name
};

/// Looks up the persistent tuning cache without running any search. Returns
/// the cached winner for this (matrix structure, device, precision, search
/// space), or nullopt on a miss or when opts.use_cache is false. An entry
/// whose mrows is outside space.mrows or not a multiple of the device's
/// wavefront size could never have won a search on this key, and would
/// fail at launch; it is a miss, so the caller re-tunes. This is how
/// dispatch layers default their configuration from earlier tuning runs
/// without paying for a search.
template <Real T>
std::optional<CachedTuning> load_cached_tuning(const gpusim::DeviceSpec& spec,
                                               const Coo<T>& a,
                                               const AutotuneSpace& space = {},
                                               const AutotuneOptions& opts = {}) {
  if (!opts.use_cache) return std::nullopt;
  obs::Span span("autotune/cache_lookup");
  static obs::Counter& hits =
      obs::Registry::global().counter("autotune.cache_hit");
  static obs::Counter& misses =
      obs::Registry::global().counter("autotune.cache_miss");
  CachedTuning t;
  t.key = detail::tune_cache_key(spec, a, space, opts);
  const std::string path =
      (std::filesystem::path(detail::tune_cache_dir(opts)) / (t.key + ".txt"))
          .string();
  if (detail::tune_cache_load(path, t.config, t.local_memory, t.seconds) &&
      t.config.mrows % spec.wavefront_size == 0 &&
      std::find(space.mrows.begin(), space.mrows.end(), t.config.mrows) !=
          space.mrows.end()) {
    // The entry was stored under these storage options (they are part of
    // the key), so rebuild-from-cache must apply them too.
    t.config.storage = opts.storage;
    hits.add(1);
    return t;
  }
  misses.add(1);
  return std::nullopt;
}

/// Searches the candidate grid for the fastest configuration, with
/// cost-model pruning, concurrent evaluation, and the persistent cache per
/// `opts`. Cache hits return immediately with zero measured trials.
template <Real T>
AutotuneResult autotune_crsd(gpusim::Device& dev, const Coo<T>& a,
                             const AutotuneSpace& space,
                             const AutotuneOptions& opts) {
  CRSD_CHECK_MSG(!space.mrows.empty(), "empty search space");
  namespace fs = std::filesystem;

  obs::Span search_span("autotune/search");

  AutotuneResult result;
  std::string cache_dir;
  std::string cache_path;
  if (opts.use_cache) {
    cache_dir = detail::tune_cache_dir(opts);
    if (std::optional<CachedTuning> cached =
            load_cached_tuning(dev.spec(), a, space, opts)) {
      result.cache_key = cached->key;
      result.best_config = cached->config;
      result.best_local_memory = cached->local_memory;
      result.best_seconds = cached->seconds;
      result.cache_hit = true;
      return result;
    }
    result.cache_key = detail::tune_cache_key(dev.spec(), a, space, opts);
    cache_path = (fs::path(cache_dir) / (result.cache_key + ".txt")).string();
  }

  // Candidate configurations in fixed grid order; every trial owns a fixed
  // slot in the result, so concurrent evaluation cannot reorder anything.
  std::vector<CrsdConfig> configs;
  for (index_t mrows : space.mrows) {
    if (mrows % dev.spec().wavefront_size != 0) continue;
    for (index_t gap : space.fill_max_gap_segments) {
      for (double min_fill : space.live_min_fill) {
        CrsdConfig cfg;
        cfg.mrows = mrows;
        cfg.fill_max_gap_segments = gap;
        cfg.live_min_fill = min_fill;
        cfg.storage = opts.storage;
        configs.push_back(cfg);
      }
    }
  }
  CRSD_CHECK_MSG(!configs.empty(),
                 "no candidate was legal on this device (mrows must be a "
                 "multiple of the wavefront size)");

  // Phase 1: build every candidate container concurrently (one build per
  // task) and predict its launch time statically: replay the candidate's
  // metadata-determined address streams through the coalescing model and
  // feed the counters into the device's timing formula. No trial launch,
  // no value data; deterministic, so concurrent tuners agree.
  std::vector<std::unique_ptr<CrsdMatrix<T>>> mats(configs.size());
  std::vector<double> predicted(configs.size(), 0.0);
  {
    obs::Span span("autotune/build_candidates", "candidates",
                   static_cast<std::int64_t>(configs.size()));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      tasks.push_back([&, c] {
        mats[c] = std::make_unique<CrsdMatrix<T>>(crsd::detail::build_crsd_impl(a, configs[c]));
        analysis::AnalyzeOptions aopts;
        aopts.spec = dev.spec();
        const analysis::CoalescingReport rep = analysis::predict_crsd_counters(
            analysis::build_launch_model(*mats[c], aopts));
        predicted[c] = perf::predict_crsd_spmv_seconds(
            dev.spec(), rep.counters, std::is_same_v<T, double>);
      });
    }
    detail::run_trial_tasks(opts.pool, tasks);
  }

  // Phase 2: prune. Candidates predicted slower than prune_margin x the
  // best prediction are not worth simulating.
  std::vector<bool> keep(configs.size(), true);
  if (opts.prune_with_model) {
    double best_pred = std::numeric_limits<double>::infinity();
    for (double p : predicted) best_pred = std::min(best_pred, p);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      keep[c] = predicted[c] <= opts.prune_margin * best_pred;
    }
  }

  // Phase 3: measure the survivors concurrently, one private Device per
  // trial (Device tracks allocations, so trials must not share one).
  result.trials.resize(configs.size() * space.use_local_memory.size());
  {
    obs::Span span("autotune/measure");
    std::vector<std::function<void()>> tasks;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      for (std::size_t l = 0; l < space.use_local_memory.size(); ++l) {
        AutotuneTrial& trial = result.trials[c * space.use_local_memory.size() + l];
        trial.config = configs[c];
        trial.local_memory = space.use_local_memory[l];
        trial.predicted_seconds = predicted[c];
        trial.stats = mats[c]->stats();
        if (!keep[c]) {
          trial.measured = false;
          trial.seconds = std::numeric_limits<double>::infinity();
          continue;
        }
        tasks.push_back([&, c, &trial = trial] {
          gpusim::Device trial_dev(dev.spec());
          std::vector<T> x(static_cast<std::size_t>(a.num_cols()), T(1));
          std::vector<T> y(static_cast<std::size_t>(a.num_rows()));
          CrsdGpuOptions gpu_opts;
          gpu_opts.use_local_memory = trial.local_memory;
          trial.seconds =
              gpu_spmv_crsd(trial_dev, *mats[c], x.data(), y.data(), gpu_opts,
                            /*pool=*/nullptr)
                  .seconds;
        });
      }
    }
    detail::run_trial_tasks(opts.pool, tasks);
  }

  // Select the winner and tally the accounting (fixed trial order keeps
  // tie-breaks deterministic).
  result.best_seconds = std::numeric_limits<double>::infinity();
  for (const AutotuneTrial& trial : result.trials) {
    if (trial.measured) {
      ++result.measured_trials;
      if (trial.seconds < result.best_seconds) {
        result.best_seconds = trial.seconds;
        result.best_config = trial.config;
        result.best_local_memory = trial.local_memory;
      }
    } else {
      ++result.pruned_trials;
    }
  }

  // Model quality over the measured trials: compare *normalized* predicted
  // and measured times (each divided by its minimum). One static prediction
  // per config stands in for both local-memory variants, so normalization
  // keeps the error meaningful for the local=false trials too.
  {
    double min_pred = std::numeric_limits<double>::infinity();
    double min_meas = std::numeric_limits<double>::infinity();
    for (const AutotuneTrial& t : result.trials) {
      if (!t.measured) continue;
      min_pred = std::min(min_pred, t.predicted_seconds);
      min_meas = std::min(min_meas, t.seconds);
    }
    double err_sum = 0.0;
    index_t err_n = 0;
    for (const AutotuneTrial& t : result.trials) {
      if (!t.measured || !(min_pred > 0.0) || !(min_meas > 0.0)) continue;
      const double pred_norm = t.predicted_seconds / min_pred;
      const double meas_norm = t.seconds / min_meas;
      err_sum += std::abs(pred_norm - meas_norm) / meas_norm;
      ++err_n;
    }
    result.model_rel_error = err_n > 0 ? err_sum / err_n : 0.0;
  }

  {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& measured = reg.counter("autotune.trials_measured");
    static obs::Counter& pruned = reg.counter("autotune.trials_pruned");
    static obs::Gauge& rel_error = reg.gauge("autotune.model_rel_error");
    measured.add(static_cast<std::uint64_t>(result.measured_trials));
    pruned.add(static_cast<std::uint64_t>(result.pruned_trials));
    rel_error.set(result.model_rel_error);
  }

  if (opts.use_cache && result.measured_trials > 0) {
    detail::tune_cache_store(cache_dir, cache_path, result.best_config,
                             result.best_local_memory, result.best_seconds);
  }
  return result;
}

/// Exhaustive reference search: evaluates the full candidate grid with one
/// simulated SpMV each and returns the fastest configuration. No pruning,
/// no cache — every legal candidate is measured (`pool`, when given, only
/// parallelizes the evaluation).
template <Real T>
AutotuneResult autotune_crsd(gpusim::Device& dev, const Coo<T>& a,
                             const AutotuneSpace& space = {},
                             ThreadPool* pool = nullptr) {
  AutotuneOptions opts;
  opts.prune_with_model = false;
  opts.use_cache = false;
  opts.pool = pool;
  return autotune_crsd(dev, a, space, opts);
}

}  // namespace crsd::kernels
