// Multi-tenant SpMV serving engine (ROADMAP #1): a long-running component
// that registers matrices once, accepts concurrent SpMV requests against
// them, and *coalesces* requests that target the same matrix into one
// register-blocked SpMM call (kernels/cpu_spmm.hpp) — the k=8 batch sweep
// streams the value stream once for eight right-hand sides (1.26x geomean
// over eight single-vector JIT sweeps in BENCH_spmm.json), which is where
// the served-throughput headroom under load comes from.
//
// Shape of the engine:
//
//  * Registry: matrices are registered up front and deduplicated by
//    (structure hash, value fingerprint, storage mode), so tenants sharing
//    a matrix share one CRSD build, one SpmmEngine, and one JIT codelet.
//    Each entry's CrsdConfig defaults from the persistent autotune cache
//    (kernels/crsd_autotune.hpp) keyed by the same structure hash.
//
//  * Dispatch: each flush cycle groups the pending queue per matrix into
//    batches of at most max_batch requests and lowers the whole cycle into
//    one rt::TaskGraph — a kH2D gather node (pack request vectors into a
//    column-major X block), a kLaunch compute node on one of a few exec
//    lanes (SpmmEngine::apply for k >= 2, JIT or interpreted
//    single-vector SpMV for k == 1; one lane per matrix, matrices dealt
//    round-robin over the lanes), a kD2H deliver node
//    (slice Y back into per-request results), and a final kReduce epoch
//    node. rt::GraphExecutor runs it on the shared ThreadPool, so serve
//    batches compose with multi-device shards and hybrid splits under one
//    scheduler, and the virtual timeline gives a deterministic,
//    noise-free makespan (bench_serve gates on it). The async dispatcher
//    runs a cycle of one request on its own thread instead, and the k == 1
//    leftovers of a larger cycle on the pool's urgent path.
//
//  * Admission control: past max_queue_depth pending requests, submit()
//    rejects immediately with a check::Diagnostic (kServeOverload) instead
//    of queueing unboundedly — shed load early, keep tail latency of
//    admitted requests bounded.
//
//  * SLOs: per-tenant latency histograms and p50/p99 gauges are exported
//    through the obs metrics registry (serve.tenant.<name>.*).
//
// Results are bitwise-identical to running each request through the
// single-vector path: SpmmEngine columns reproduce CrsdMatrix::spmv
// exactly, and non-native (compacted) storage modes — whose value streams
// the SpMM engine cannot read — fall back to per-request spmv inside the
// same graph.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/build_api.hpp"
#include "matrix/coo.hpp"
#include "perf/cpu_model.hpp"

namespace crsd::serve {

using MatrixId = int;

struct ServeOptions {
  /// Largest SpMM batch one matrix's requests are coalesced into. The
  /// register-blocked engine peaks at 8; 1 disables coalescing entirely
  /// (every request runs as a single-vector node — bench_serve's baseline).
  index_t max_batch = 8;
  /// Compute lanes in the dispatch graph. Batches of different matrices
  /// pipeline across lanes while gathers and delivers overlap on their own
  /// queues. All batches of one matrix run on one lane: they share its
  /// SpmmEngine, whose scratch serves one apply at a time.
  int exec_lanes = 2;
  /// Admission high watermark: a submit() that would push the pending
  /// count past this is rejected with kServeOverload.
  std::size_t max_queue_depth = 64;
  /// Spawn a background dispatcher thread (submit() wakes it; drain() is
  /// then illegal). It is work-conserving: a cycle starts as soon as a
  /// request is pending and the previous cycle has finished, so batches
  /// form from the backlog that queues while a cycle runs, and a lone
  /// request runs at once on the dispatcher thread. Off = manual mode: the
  /// caller pumps drain() itself, which is what the deterministic bench
  /// and most tests want.
  bool async = false;
  /// Compile a JIT codelet per registered matrix and use it for the k == 1
  /// fallback path (batches always use the SpMM engine).
  bool use_jit = false;
  /// Recompute one column of every batch with the single-vector reference
  /// and fail the whole batch (kServeBatchMismatch) on any bitwise
  /// difference — a self-check for the gather/slice plumbing.
  bool verify_batches = false;
  /// Default each entry's CrsdConfig from the persistent autotune cache
  /// (keyed by structure hash; a prior autotune run on the same structure
  /// is reused with zero search).
  bool tune_from_cache = true;
  /// Host model behind the virtual-timeline node costs.
  perf::CpuSystemSpec system;
};

struct ServeEngineImpl;

enum class RequestStatus {
  kPending,   ///< queued or in flight
  kDone,      ///< result() is valid
  kRejected,  ///< admission control refused it; diagnostic() says why
  kFailed,    ///< dispatch failed (batch verification, or a throw in a
              ///< single-vector SpMV) or the engine was destroyed before
              ///< dispatching it; see diagnostic()
};

/// Per-request future. Cheap to copy; all accessors are thread-safe.
class RequestHandle {
 public:
  RequestHandle();
  ~RequestHandle();
  RequestHandle(const RequestHandle&);
  RequestHandle& operator=(const RequestHandle&);
  RequestHandle(RequestHandle&&) noexcept;
  RequestHandle& operator=(RequestHandle&&) noexcept;

  bool valid() const { return state_ != nullptr; }
  /// Blocks until the request leaves kPending. Rejected requests are
  /// resolved before submit() returns, so this never blocks for them.
  void wait() const;
  RequestStatus status() const;
  /// The y vector. Requires status() == kDone.
  const std::vector<double>& result() const;
  /// Why the request was rejected or failed. Requires kRejected/kFailed.
  const check::Diagnostic& diagnostic() const;
  /// Batch size this request was served in (1 = single-vector fallback).
  /// 0 until resolved.
  index_t served_batch_k() const;
  /// Virtual-timeline completion offset (seconds) of the dispatch cycle
  /// that served this request — deterministic, from the task graph's
  /// modeled clocks. 0 until resolved; 0 for rejected requests.
  double virtual_finish_seconds() const;

 private:
  friend class ServeEngine;
  friend struct ServeEngineImpl;
  struct State;
  std::shared_ptr<State> state_;
};

/// What register_matrix resolved for an entry.
struct MatrixInfo {
  MatrixId id = -1;
  std::uint64_t structure_hash = 0;
  bool dedup_hit = false;        ///< an identical registration was reused
  bool tuned_from_cache = false; ///< config came from the autotune cache
  bool batchable = false;        ///< SpMM available (native value stream)
  CrsdConfig config;             ///< the build configuration used
};

/// One drain cycle's outcome (manual mode).
struct DispatchStats {
  index_t requests = 0;            ///< requests resolved this cycle
  index_t batches = 0;             ///< graph batches with k >= 2
  index_t singles = 0;             ///< k == 1 fallback nodes
  index_t coalesced_requests = 0;  ///< requests served inside k >= 2 batches
  double makespan_seconds = 0.0;   ///< virtual makespan of the cycle's graph
  double stage_seconds = 0.0;      ///< modeled gather (kH2D) time
  double compute_seconds = 0.0;    ///< modeled SpMM/SpMV (kLaunch) time
  double deliver_seconds = 0.0;    ///< modeled slice-back (kD2H) time
};

class ServeEngine {
 public:
  ServeEngine(ThreadPool& pool, ServeOptions opts = {});
  /// Async mode finishes every queued request first. Requests still queued
  /// in manual mode (no drain() since they were submitted) resolve as
  /// kFailed with kServeShutdown, so no outliving handle waits forever.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Builds (or dedups) the CRSD container + engines for `a` and
  /// returns its registry entry. Thread-safe.
  MatrixInfo register_matrix(const Coo<double>& a,
                             const StorageOptions& storage = {});

  std::size_t registry_size() const;
  const CrsdMatrix<double>& matrix(MatrixId id) const;

  /// Queues one SpMV request (y = A_id * x). `x.size()` must equal the
  /// matrix's num_cols. Returns a resolved-kRejected handle when the
  /// pending queue is at the admission watermark. Thread-safe.
  RequestHandle submit(MatrixId id, const std::string& tenant,
                       std::vector<double> x);

  /// Manual mode: coalesces everything pending into one task graph, runs
  /// it, resolves the handles, and reports the cycle. Illegal in async
  /// mode; must not be called concurrently with itself.
  DispatchStats drain();

  std::size_t pending() const;

  /// Test hook: the next gathered batch mis-slices its columns (each
  /// column takes the following request's x), exercising the
  /// verify_batches detection path.
  void inject_batch_fault_for_test();

 private:
  std::unique_ptr<ServeEngineImpl> impl_;
};

}  // namespace crsd::serve
