#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/inspect.hpp"
#include "gpusim/device.hpp"
#include "kernels/cpu_spmm.hpp"
#include "kernels/crsd_autotune.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/task_graph.hpp"

namespace crsd::serve {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.requests");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.rejected");
  return c;
}
obs::Counter& batches_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.batches");
  return c;
}
obs::Counter& singles_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.singles");
  return c;
}
obs::Counter& coalesced_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.coalesced_requests");
  return c;
}
obs::Counter& dedup_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.registry_dedup_hits");
  return c;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct RequestHandle::State {
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  RequestStatus status = RequestStatus::kPending;
  std::vector<double> x;
  std::vector<double> result;
  check::Diagnostic diag;
  index_t batch_k = 0;
  double virtual_finish = 0.0;
  std::string tenant;
  MatrixId matrix = -1;
  std::uint64_t submit_ns = 0;
};

RequestHandle::RequestHandle() = default;
RequestHandle::~RequestHandle() = default;
RequestHandle::RequestHandle(const RequestHandle&) = default;
RequestHandle& RequestHandle::operator=(const RequestHandle&) = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;

void RequestHandle::wait() const {
  CRSD_CHECK_MSG(state_, "wait() on an empty RequestHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [this] { return state_->status != RequestStatus::kPending; });
}

RequestStatus RequestHandle::status() const {
  CRSD_CHECK_MSG(state_, "status() on an empty RequestHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

const std::vector<double>& RequestHandle::result() const {
  CRSD_CHECK_MSG(state_, "result() on an empty RequestHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  CRSD_CHECK_MSG(state_->status == RequestStatus::kDone,
                 "result() requires a kDone request");
  return state_->result;
}

const check::Diagnostic& RequestHandle::diagnostic() const {
  CRSD_CHECK_MSG(state_, "diagnostic() on an empty RequestHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  CRSD_CHECK_MSG(state_->status == RequestStatus::kRejected ||
                     state_->status == RequestStatus::kFailed,
                 "diagnostic() requires a rejected or failed request");
  return state_->diag;
}

index_t RequestHandle::served_batch_k() const {
  CRSD_CHECK_MSG(state_, "served_batch_k() on an empty RequestHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->batch_k;
}

double RequestHandle::virtual_finish_seconds() const {
  CRSD_CHECK_MSG(state_, "virtual_finish_seconds() on an empty RequestHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->virtual_finish;
}

struct ServeEngineImpl {
  using State = RequestHandle::State;
  using StatePtr = std::shared_ptr<State>;

  /// One registered matrix: the shared build plus everything dispatch
  /// needs, immutable after registration (entries are never removed, so
  /// raw pointers into the deque stay valid).
  struct Entry {
    MatrixId id = -1;
    std::uint64_t shash = 0;
    CrsdConfig config;
    bool tuned_from_cache = false;
    CrsdMatrix<double> m;
    std::unique_ptr<SpmmEngine<double>> spmm;  ///< null for compacted values
    std::optional<codegen::CrsdJitKernel<double>> jit;
    // Virtual-timeline cost pieces (perf roofline, modeled seconds):
    // the diagonal/scatter value+index streams are read once per batch,
    // x reads and y writes scale per vector.
    double stream_bytes = 0.0;
    double per_vec_bytes = 0.0;
    double per_vec_flops = 0.0;
  };

  /// One coalesced unit of work inside a dispatch cycle.
  struct Batch {
    Entry* entry = nullptr;
    std::vector<StatePtr> reqs;  ///< column j serves reqs[j]
    bool fault = false;          ///< test hook: mis-slice the gather
    bool failed = false;         ///< batch verification tripped
    std::string fail_msg;
    std::vector<double> x_block, y_block;  ///< column-major k-vector blocks
    double deliver_finish = 0.0;           ///< virtual finish of the cycle
  };

  ThreadPool& pool;
  ServeOptions opts;

  mutable std::mutex mu;
  std::condition_variable cv_pending;  ///< wakes the async dispatcher
  std::deque<std::unique_ptr<Entry>> entries;
  std::unordered_map<std::uint64_t, MatrixId> dedup;  ///< fingerprint -> id
  std::vector<std::vector<StatePtr>> pending_by_matrix;  ///< indexed by id
  std::size_t pending_total = 0;
  std::atomic<int> fault_injections{0};
  bool stopping = false;
  bool dispatch_in_flight = false;  ///< serializes drain()/flush cycles
  std::optional<codegen::JitCompiler> compiler;
  std::thread dispatcher;

  ServeEngineImpl(ThreadPool& p, ServeOptions o) : pool(p), opts(std::move(o)) {
    CRSD_CHECK_MSG(opts.max_batch >= 1, "max_batch must be >= 1");
    CRSD_CHECK_MSG(opts.exec_lanes >= 1, "exec_lanes must be >= 1");
    if (opts.use_jit) {
      try {
        compiler.emplace();
      } catch (const std::exception& e) {
        CRSD_LOG_WARN(std::string("serve: no JIT compiler available, using "
                                  "interpreted single-vector fallback: ") +
                      e.what());
      }
    }
    if (opts.async) {
      dispatcher = std::thread([this] { dispatcher_loop(); });
    }
  }

  ~ServeEngineImpl() {
    if (opts.async) {
      {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
      }
      cv_pending.notify_all();
      dispatcher.join();
    }
    // Urgent single-request closures capture entry pointers; make sure
    // none are still in flight before the registry is torn down.
    pool.drain_urgent();
    // The async dispatcher drains the queue before it exits; in manual
    // mode whatever was submitted after the last drain() is still queued
    // and will never be computed.
    std::vector<StatePtr> orphans;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::vector<StatePtr>& queue : pending_by_matrix) {
        orphans.insert(orphans.end(), queue.begin(), queue.end());
        queue.clear();
      }
      pending_total = 0;
    }
    for (const StatePtr& sp : orphans) {
      std::lock_guard<std::mutex> lock(sp->mu);
      sp->diag.code = check::Code::kServeShutdown;
      sp->diag.severity = check::Severity::kError;
      sp->diag.message = "serve engine destroyed before the request ran";
      sp->status = RequestStatus::kFailed;
      sp->cv.notify_all();
    }
  }

  // ---------------------------------------------------------------- registry

  static std::uint64_t registration_fingerprint(const Coo<double>& a,
                                                const StorageOptions& storage,
                                                std::uint64_t shash) {
    // Identical structure + identical values + identical storage mode =>
    // one entry serves every tenant that registered it.
    const std::string_view value_bytes(
        reinterpret_cast<const char*>(a.values().data()),
        static_cast<std::size_t>(a.nnz()) * sizeof(double));
    std::uint64_t h = shash;
    h ^= fnv1a64(value_bytes);
    h = h * 1099511628211ULL +
        (static_cast<std::uint64_t>(storage.value_precision) * 4 +
         (storage.narrow_scatter_indices ? 1 : 0));
    return h;
  }

  MatrixInfo register_matrix(const Coo<double>& a,
                             const StorageOptions& storage) {
    obs::Span span("serve/register_matrix");
    const std::uint64_t shash = structure_hash(a);
    const std::uint64_t fp = registration_fingerprint(a, storage, shash);
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = dedup.find(fp);
      if (it != dedup.end()) {
        dedup_counter().add(1);
        const Entry& e = *entries[static_cast<std::size_t>(it->second)];
        return MatrixInfo{e.id,   e.shash,           true,
                          e.tuned_from_cache, e.spmm != nullptr, e.config};
      }
    }

    // Build outside the lock (construction is the expensive part); losing
    // a registration race just means the duplicate build is dropped.
    auto entry = std::make_unique<Entry>();
    entry->shash = shash;
    if (opts.tune_from_cache) {
      if (std::optional<kernels::CachedTuning> tuned =
              kernels::load_cached_tuning(gpusim::DeviceSpec::tesla_c2050(),
                                          a)) {
        entry->config = tuned->config;
        entry->tuned_from_cache = true;
      }
    }
    entry->config.storage = storage;
    entry->m = crsd::build(a, entry->config);
    if (entry->m.value_precision() == ValuePrecision::kNative) {
      entry->spmm = std::make_unique<SpmmEngine<double>>(entry->m);
    }
    if (compiler.has_value()) {
      try {
        entry->jit = codegen::make_jit_kernel(entry->m, *compiler,
                                              codegen::Checked::kYes);
      } catch (const std::exception& e) {
        CRSD_LOG_WARN(std::string("serve: JIT compile failed, interpreted "
                                  "fallback: ") +
                      e.what());
      }
    }

    const CrsdStats st = entry->m.stats();
    const double vb = st.value_bytes > 0 ? st.value_bytes : 8.0;
    entry->stream_bytes =
        double(st.dia_slots) * vb +
        double(st.num_scatter_rows) * double(st.scatter_width) * vb +
        double(st.scatter_index_bytes) + double(st.dia_index_bytes);
    entry->per_vec_bytes =
        (double(st.dia_slots) +
         double(segment_row_range(0, st.num_segments, entry->m.mrows(),
                                  entry->m.num_rows())
                    .size())) *
            8.0 +
        double(st.num_scatter_rows) * (double(st.scatter_width) + 1.0) * 8.0;
    entry->per_vec_flops =
        2.0 * (double(st.dia_slots) +
               double(st.num_scatter_rows) * double(st.scatter_width));

    std::lock_guard<std::mutex> lock(mu);
    auto it = dedup.find(fp);
    if (it != dedup.end()) {
      dedup_counter().add(1);
      const Entry& e = *entries[static_cast<std::size_t>(it->second)];
      return MatrixInfo{e.id,   e.shash,           true,
                        e.tuned_from_cache, e.spmm != nullptr, e.config};
    }
    entry->id = static_cast<MatrixId>(entries.size());
    dedup.emplace(fp, entry->id);
    pending_by_matrix.emplace_back();
    const Entry& e = *entries.emplace_back(std::move(entry));
    obs::Registry::global().gauge("serve.registry_size")
        .set(double(entries.size()));
    return MatrixInfo{e.id,   e.shash,           false,
                      e.tuned_from_cache, e.spmm != nullptr, e.config};
  }

  // ------------------------------------------------------------- cost model

  double batch_seconds(const Entry& e, index_t k) const {
    perf::SweepCost c;
    c.bytes = static_cast<size64_t>(e.stream_bytes + double(k) * e.per_vec_bytes);
    c.flops = static_cast<size64_t>(double(k) * e.per_vec_flops);
    return perf::roofline_seconds(opts.system, c, 1, true);
  }

  double transfer_seconds(size64_t bytes) const {
    perf::SweepCost c;
    c.bytes = bytes;
    c.flops = 0;
    return perf::roofline_seconds(opts.system, c, 1, true);
  }

  // --------------------------------------------------------------- requests

  RequestHandle submit(MatrixId id, const std::string& tenant,
                       std::vector<double> x) {
    RequestHandle h;
    h.state_ = std::make_shared<State>();
    State& s = *h.state_;
    s.tenant = tenant;
    s.matrix = id;
    s.submit_ns = now_ns();
    s.x = std::move(x);

    bool rejected = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      CRSD_CHECK_MSG(id >= 0 &&
                         static_cast<std::size_t>(id) < entries.size(),
                     "submit() against unregistered matrix id " << id);
      CRSD_CHECK_MSG(
          s.x.size() == static_cast<std::size_t>(
                            entries[static_cast<std::size_t>(id)]->m.num_cols()),
          "submit() x length " << s.x.size() << " != num_cols of matrix "
                               << id);
      depth = pending_total;
      if (pending_total >= opts.max_queue_depth) {
        rejected = true;
      } else {
        pending_by_matrix[static_cast<std::size_t>(id)].push_back(h.state_);
        ++pending_total;
      }
    }

    if (rejected) {
      rejected_counter().add(1);
      check::Diagnostic d;
      d.code = check::Code::kServeOverload;
      d.severity = check::Severity::kError;
      std::ostringstream msg;
      msg << "admission control: " << depth
          << " pending requests at the high watermark ("
          << opts.max_queue_depth << "); request for matrix " << id
          << " from tenant \"" << tenant << "\" shed";
      d.message = msg.str();
      std::lock_guard<std::mutex> lock(s.mu);
      s.diag = std::move(d);
      s.status = RequestStatus::kRejected;
      s.cv.notify_all();
      return h;
    }

    requests_counter().add(1);
    if (opts.async) cv_pending.notify_one();
    return h;
  }

  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu);
    return pending_total;
  }

  // --------------------------------------------------------------- dispatch

  /// Groups everything pending into per-matrix batches of <= max_batch.
  /// Caller must hold `mu`.
  std::vector<Batch> collect_batches_locked() {
    std::vector<Batch> batches;
    for (std::size_t id = 0; id < pending_by_matrix.size(); ++id) {
      std::vector<StatePtr>& queue = pending_by_matrix[id];
      if (queue.empty()) continue;
      Entry* e = entries[id].get();
      // Compacted value streams have no SpMM engine: serve them one
      // request per node.
      const index_t cap = e->spmm ? opts.max_batch : 1;
      for (std::size_t i = 0; i < queue.size();) {
        const std::size_t take =
            std::min<std::size_t>(static_cast<std::size_t>(cap),
                                  queue.size() - i);
        Batch b;
        b.entry = e;
        b.reqs.assign(queue.begin() + static_cast<std::ptrdiff_t>(i),
                      queue.begin() + static_cast<std::ptrdiff_t>(i + take));
        if (b.reqs.size() >= 2 && fault_injections.load() > 0 &&
            fault_injections.fetch_sub(1) > 0) {
          b.fault = true;
        }
        batches.push_back(std::move(b));
        i += take;
      }
      pending_total -= queue.size();
      queue.clear();
    }
    return batches;
  }

  /// Lowers one cycle's batches into a task graph and runs it: gather
  /// (kH2D) -> compute (kLaunch, one lane per matrix, matrices dealt
  /// round-robin over the lanes) -> deliver (kD2H),
  /// plus one kReduce epoch node joining the cycle. Handles resolve after
  /// the run, with virtual finish times from the graph's modeled clocks.
  DispatchStats dispatch(std::vector<Batch> batches) {
    DispatchStats out;
    if (batches.empty()) return out;
    obs::Span span("serve/dispatch");

    rt::TaskGraph g;
    const rt::QueueId stage_q = g.add_queue("serve.stage");
    std::vector<rt::QueueId> exec_qs;
    for (int l = 0; l < opts.exec_lanes; ++l) {
      exec_qs.push_back(g.add_queue("serve.exec" + std::to_string(l)));
    }
    const rt::QueueId deliver_q = g.add_queue("serve.deliver");

    std::vector<rt::NodeId> deliver_nodes;
    deliver_nodes.reserve(batches.size());
    // Batches arrive grouped by matrix. A matrix's batches share its
    // SpmmEngine, whose scratch serves one apply at a time, so they all
    // take one lane; the next matrix takes the next lane.
    std::size_t lane = 0;
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      Batch* b = &batches[bi];
      if (bi > 0 && b->entry != batches[bi - 1].entry) {
        lane = (lane + 1) % exec_qs.size();
      }
      const Entry& e = *b->entry;
      const index_t k = static_cast<index_t>(b->reqs.size());
      const index_t ncols = e.m.num_cols();
      const index_t nrows = e.m.num_rows();
      const std::string tag =
          "m" + std::to_string(e.id) + ".k" + std::to_string(k);

      const rt::NodeId stage = g.add_node(
          rt::NodeKind::kH2D, stage_q, "gather." + tag, [this, b, k, ncols] {
            // Pack request vectors into a column-major X block. The fault
            // hook rotates the column->request mapping by one, which the
            // deliver-side verification must catch.
            b->x_block.resize(static_cast<std::size_t>(k) *
                              static_cast<std::size_t>(ncols));
            b->y_block.assign(static_cast<std::size_t>(k) *
                                  static_cast<std::size_t>(b->entry->m.num_rows()),
                              0.0);
            for (index_t j = 0; j < k; ++j) {
              const index_t src = b->fault ? (j + 1) % k : j;
              const std::vector<double>& x =
                  b->reqs[static_cast<std::size_t>(src)]->x;
              std::memcpy(b->x_block.data() +
                              static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(ncols),
                          x.data(), x.size() * sizeof(double));
            }
            return transfer_seconds(static_cast<size64_t>(k) *
                                    static_cast<size64_t>(ncols) *
                                    sizeof(double));
          });

      const rt::NodeId exec = g.add_node(
          rt::NodeKind::kLaunch,
          exec_qs[lane],
          "spmm." + tag, [this, b, k, ncols, nrows] {
            const Entry& en = *b->entry;
            if (k >= 2) {
              en.spmm->apply(b->x_block.data(), static_cast<size64_t>(ncols),
                             b->y_block.data(), static_cast<size64_t>(nrows),
                             k);
            } else if (en.jit.has_value()) {
              en.jit->spmv(en.m, b->x_block.data(), b->y_block.data());
            } else {
              en.m.spmv(b->x_block.data(), b->y_block.data());
            }
            return batch_seconds(en, k);
          });

      const rt::NodeId deliver = g.add_node(
          rt::NodeKind::kD2H, deliver_q, "deliver." + tag,
          [this, b, k, nrows] {
            if (opts.verify_batches) {
              // Recompute column 0 with the single-vector reference; any
              // bitwise difference fails the whole batch.
              std::vector<double> ref(static_cast<std::size_t>(nrows));
              b->entry->m.spmv(b->reqs[0]->x.data(), ref.data());
              if (std::memcmp(ref.data(), b->y_block.data(),
                              ref.size() * sizeof(double)) != 0) {
                b->failed = true;
                std::ostringstream msg;
                msg << "batch verification: column 0 of a k=" << k
                    << " batch on matrix " << b->entry->id
                    << " diverged bitwise from the single-vector reference";
                b->fail_msg = msg.str();
              }
            }
            if (!b->failed) {
              for (index_t j = 0; j < k; ++j) {
                State& s = *b->reqs[static_cast<std::size_t>(j)];
                // Pre-publication write: readers cannot touch result until
                // the status flip below happens-after this under s.mu.
                s.result.assign(
                    b->y_block.begin() +
                        static_cast<std::ptrdiff_t>(j) * nrows,
                    b->y_block.begin() +
                        static_cast<std::ptrdiff_t>(j + 1) * nrows);
              }
            }
            return transfer_seconds(static_cast<size64_t>(k) *
                                    static_cast<size64_t>(nrows) *
                                    sizeof(double));
          });

      g.add_edge(stage, exec);
      g.add_edge(exec, deliver);
      deliver_nodes.push_back(deliver);

      if (k >= 2) {
        ++out.batches;
        out.coalesced_requests += k;
      } else {
        ++out.singles;
      }
      out.requests += k;
    }

    // Epoch join: one reduce node depending on every deliver, so the
    // cycle has a single completion point in the timeline.
    const rt::NodeId epoch =
        g.add_node(rt::NodeKind::kReduce, deliver_q, "epoch");
    for (rt::NodeId d : deliver_nodes) g.add_edge(d, epoch);

    g.validate_or_throw();
    rt::GraphExecutor exec(pool, g);
    const rt::GraphRunStats stats = exec.run();

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      batches[bi].deliver_finish =
          stats.nodes[static_cast<std::size_t>(deliver_nodes[bi])]
              .finish_seconds;
    }
    resolve(batches);

    out.makespan_seconds = stats.makespan_seconds;
    out.stage_seconds = stats.kind_seconds(g, rt::NodeKind::kH2D);
    out.compute_seconds = stats.kind_seconds(g, rt::NodeKind::kLaunch);
    out.deliver_seconds = stats.kind_seconds(g, rt::NodeKind::kD2H);
    batches_counter().add(static_cast<std::uint64_t>(out.batches));
    singles_counter().add(static_cast<std::uint64_t>(out.singles));
    coalesced_counter().add(static_cast<std::uint64_t>(out.coalesced_requests));
    return out;
  }

  /// Flips every request of the cycle to its terminal status and records
  /// per-tenant SLO metrics. Runs on the dispatching thread, after the
  /// graph: result vectors were written inside deliver nodes, and the
  /// status flip under each handle's mutex publishes them.
  void resolve(std::vector<Batch>& batches) {
    const std::uint64_t t_now = now_ns();
    for (Batch& b : batches) {
      const index_t k = static_cast<index_t>(b.reqs.size());
      for (const StatePtr& sp : b.reqs) {
        State& s = *sp;
        {
          std::lock_guard<std::mutex> lock(s.mu);
          s.batch_k = k;
          s.virtual_finish = b.deliver_finish;
          if (b.failed) {
            s.diag.code = check::Code::kServeBatchMismatch;
            s.diag.severity = check::Severity::kError;
            s.diag.message = b.fail_msg;
            s.status = RequestStatus::kFailed;
          } else {
            s.status = RequestStatus::kDone;
          }
          s.cv.notify_all();
        }
        record_latency(s.tenant, t_now - s.submit_ns);
      }
    }
  }

  void record_latency(const std::string& tenant, std::uint64_t ns) {
    obs::Registry& reg = obs::Registry::global();
    obs::Histogram& h =
        reg.histogram("serve.tenant." + tenant + ".latency_us");
    h.record(ns / 1000);
    reg.gauge("serve.tenant." + tenant + ".p50_us").set(h.quantile(0.50));
    reg.gauge("serve.tenant." + tenant + ".p99_us").set(h.quantile(0.99));
    reg.histogram("serve.latency_us").record(ns / 1000);
  }

  DispatchStats drain() {
    CRSD_CHECK_MSG(!opts.async,
                   "drain() is manual-mode only; the async dispatcher owns "
                   "flush cycles");
    std::vector<Batch> batches;
    {
      std::lock_guard<std::mutex> lock(mu);
      CRSD_CHECK_MSG(!dispatch_in_flight,
                     "concurrent drain() calls are not supported");
      dispatch_in_flight = true;
      batches = collect_batches_locked();
    }
    DispatchStats out;
    try {
      out = dispatch(std::move(batches));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      dispatch_in_flight = false;
      throw;
    }
    std::lock_guard<std::mutex> lock(mu);
    dispatch_in_flight = false;
    return out;
  }

  // ------------------------------------------------------------ async mode

  /// Background dispatcher, work-conserving: a cycle starts as soon as a
  /// request is pending and the previous cycle has finished, and it takes
  /// everything pending, so batches form only from the backlog that queued
  /// while the previous cycle ran. Lingering for a batch to form would
  /// make every lone request wait for requests that may never come.
  ///
  /// A cycle of one request runs it on this thread: no pool handoff, and
  /// it completes even while every pool thread is busy. In a larger cycle,
  /// k == 1 leftovers take the urgent path: ThreadPool::submit_urgent runs
  /// them ahead of any queued chunk train, and the single-vector body never
  /// touches the pool's parallel machinery, so they compose with the
  /// cycle's graph run.
  void dispatcher_loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv_pending.wait(lock, [this] { return stopping || pending_total > 0; });
      if (pending_total == 0 && stopping) return;
      std::vector<Batch> batches = collect_batches_locked();
      dispatch_in_flight = true;
      lock.unlock();

      if (batches.size() == 1 && batches[0].reqs.size() == 1) {
        serve_single(*batches[0].entry, *batches[0].reqs[0]);
      } else {
        std::vector<Batch> graph_batches;
        for (Batch& b : batches) {
          if (b.reqs.size() >= 2) {
            graph_batches.push_back(std::move(b));
          } else {
            pool.submit_urgent([this, e = b.entry, sp = b.reqs[0]] {
              serve_single(*e, *sp);
            });
          }
        }
        try {
          dispatch(std::move(graph_batches));
        } catch (const std::exception& e) {
          CRSD_LOG_ERROR(std::string("serve: dispatch cycle failed: ") +
                         e.what());
        }
      }

      lock.lock();
      dispatch_in_flight = false;
    }
  }

  /// k == 1 outside the graph (async mode): JIT or interpreted
  /// single-vector SpMV into the request's result, then resolve it. The
  /// virtual finish is the modeled single-request pipeline (gather + sweep
  /// + deliver), as there is no graph timeline to read it from. A throw
  /// resolves the request kFailed (kServeComputeFailed) rather than
  /// escaping into the dispatcher or the pool.
  void serve_single(const Entry& e, State& s) {
    singles_counter().add(1);
    std::string error;
    try {
      // Pre-publication write: readers cannot touch result until the
      // status flip below happens-after this under s.mu.
      s.result.resize(static_cast<std::size_t>(e.m.num_rows()));
      if (e.jit.has_value()) {
        e.jit->spmv(e.m, s.x.data(), s.result.data());
      } else {
        e.m.spmv(s.x.data(), s.result.data());
      }
    } catch (const std::exception& ex) {
      error = std::string("threw: ") + ex.what();
    } catch (...) {
      error = "threw a non-standard exception";
    }
    const double modeled =
        transfer_seconds(static_cast<size64_t>(e.m.num_cols()) *
                         sizeof(double)) +
        batch_seconds(e, 1) +
        transfer_seconds(static_cast<size64_t>(e.m.num_rows()) *
                         sizeof(double));
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.batch_k = 1;
      s.virtual_finish = modeled;
      if (error.empty()) {
        s.status = RequestStatus::kDone;
      } else {
        s.diag.code = check::Code::kServeComputeFailed;
        s.diag.severity = check::Severity::kError;
        s.diag.message = "single-vector SpMV on matrix " +
                         std::to_string(e.id) + " " + error;
        s.status = RequestStatus::kFailed;
      }
      s.cv.notify_all();
    }
    record_latency(s.tenant, now_ns() - s.submit_ns);
  }
};

ServeEngine::ServeEngine(ThreadPool& pool, ServeOptions opts)
    : impl_(std::make_unique<ServeEngineImpl>(pool, std::move(opts))) {}

ServeEngine::~ServeEngine() = default;

MatrixInfo ServeEngine::register_matrix(const Coo<double>& a,
                                        const StorageOptions& storage) {
  return impl_->register_matrix(a, storage);
}

std::size_t ServeEngine::registry_size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->entries.size();
}

const CrsdMatrix<double>& ServeEngine::matrix(MatrixId id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  CRSD_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) <
                                impl_->entries.size(),
                 "matrix() with unregistered id " << id);
  return impl_->entries[static_cast<std::size_t>(id)]->m;
}

RequestHandle ServeEngine::submit(MatrixId id, const std::string& tenant,
                                  std::vector<double> x) {
  return impl_->submit(id, tenant, std::move(x));
}

DispatchStats ServeEngine::drain() { return impl_->drain(); }

std::size_t ServeEngine::pending() const { return impl_->pending(); }

void ServeEngine::inject_batch_fault_for_test() {
  impl_->fault_injections.fetch_add(1);
}

}  // namespace crsd::serve
