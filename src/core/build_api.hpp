// The facade build API: one options struct folding everything the scattered
// overloads used to thread by hand — CrsdConfig construction knobs, storage
// compaction (already inside CrsdConfig::storage) and tuning-cache
// defaulting — behind a single crsd::build() entry point.
//
// This header sits at the facade layer: it deliberately reaches down into
// kernels/crsd_autotune.hpp for the persistent tuning cache, the same way
// crsd.hpp aggregates every subsystem. The partitioned build and its
// executor live in kernels/partitioned_spmv.hpp.
#pragma once

#include <optional>
#include <string>

#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/coo.hpp"

namespace crsd {

/// Unified build options. Implicitly constructible from CrsdConfig, so
/// build(a, cfg) builds exactly detail::build_crsd_impl(a, cfg); a
/// default-constructed BuildOptions builds the default CrsdConfig.
struct BuildOptions {
  /// Construction knobs, including storage compaction (config.storage).
  CrsdConfig config;

  /// When true, consult the persistent autotuner cache
  /// (kernels::load_cached_tuning) for this matrix structure on `device`
  /// and adopt the cached winner's construction knobs; config.storage
  /// stays the caller's, since it is part of the cache key. Off by default
  /// so build() stays bitwise-deterministic for callers that pin
  /// configurations.
  bool tune_from_cache = false;

  /// Device the tuning-cache entries are keyed by, and the device
  /// crsd::build_partitioned races its mrows candidates on.
  /// Callers that run on a simulated device should pass dev.spec(); the
  /// default spec keys its own cache namespace.
  gpusim::DeviceSpec device{};

  /// Cache directory override; empty resolves $CRSD_TUNE_CACHE, then
  /// <tmp>/crsd-tune-cache (kernels/crsd_autotune.hpp).
  std::string cache_dir;

  BuildOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): lets every call site that
  // holds only a CrsdConfig pass it straight to build(a, cfg).
  BuildOptions(const CrsdConfig& cfg) : config(cfg) {}
};

/// Builds a CRSD matrix from canonical COO — the facade entry point over
/// detail::build_crsd_impl. With opts.tune_from_cache set, a
/// persistent-cache hit replaces the construction knobs with the cached
/// winner's (zero measured trials, the OSKI re-ingest path); otherwise the
/// build is exactly detail::build_crsd_impl(a, opts.config). The pool is
/// unused (construction is serial); perfbench's callers still pass one.
template <Real T>
CrsdMatrix<T> build(const Coo<T>& a, const BuildOptions& opts = {},
                    ThreadPool* = nullptr) {
  CrsdConfig cfg = opts.config;
  if (opts.tune_from_cache) {
    kernels::AutotuneOptions aopts;
    aopts.cache_dir = opts.cache_dir;
    aopts.storage = cfg.storage;
    if (std::optional<kernels::CachedTuning> tuned =
            kernels::load_cached_tuning(opts.device, a, {}, aopts)) {
      cfg = tuned->config;
    }
  }
  return detail::build_crsd_impl(a, cfg);
}

}  // namespace crsd
