// Async task-graph runtime (ROADMAP #2): a DAG of typed nodes — H2D/D2H
// transfers, GPU launches, CPU compute, reductions, barriers — with explicit
// dependency edges, executed on the shared ThreadPool. Each node belongs to
// an in-order queue (one per device engine: a gpusim Device's compute queue,
// its H2D and D2H copy engines, a host lane), so graph execution models what
// a real driver does: queues run concurrently, nodes within a queue run in
// submission order.
//
// Time is virtual. A node's body returns its *modeled* seconds (a gpusim
// launch estimate, a transfer_seconds() cost, a roofline CPU sweep); the
// scheduler assigns start = max(queue clock, predecessors' finish) and
// finish = start + modeled. The resulting makespan is a deterministic
// function of the graph and the cost model — independent of real thread
// interleaving — which is what lets CI gate on scaling and overlap
// efficiency without wall-clock noise. Real wall time is recorded per node
// alongside, for traces.
//
// Determinism of results is the caller's contract: nodes that write the
// same memory must be ordered by edges (the scheduler establishes
// happens-before between a node and its successors), and reductions must
// merge in a fixed order. multi_device.hpp's row splits sidestep both:
// their parts write disjoint rows of y.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace crsd::rt {

enum class NodeKind { kH2D, kD2H, kLaunch, kCpuCompute, kReduce, kBarrier };

inline const char* node_kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::kH2D: return "h2d";
    case NodeKind::kD2H: return "d2h";
    case NodeKind::kLaunch: return "launch";
    case NodeKind::kCpuCompute: return "cpu";
    case NodeKind::kReduce: return "reduce";
    case NodeKind::kBarrier: return "barrier";
  }
  return "unknown";
}

using NodeId = int;
using QueueId = int;

/// Node body: does the work and returns its modeled duration in seconds.
using NodeBody = std::function<double()>;

struct GraphNode {
  NodeKind kind = NodeKind::kBarrier;
  QueueId queue = 0;
  std::string label;
  NodeBody body;                            ///< null = instantaneous
  std::function<void(NodeId)> on_complete;  ///< optional async callback
  std::vector<NodeId> deps;                 ///< edges in (predecessors)
  std::vector<NodeId> outs;                 ///< edges out (successors)
};

/// Build-phase description of the DAG. Immutable during execution; a graph
/// can be re-run by constructing a fresh GraphExecutor.
class TaskGraph {
 public:
  /// Declares an in-order execution lane (e.g. "dev0.compute", "host").
  QueueId add_queue(std::string name) {
    queues_.push_back(std::move(name));
    return static_cast<QueueId>(queues_.size()) - 1;
  }
  int num_queues() const { return static_cast<int>(queues_.size()); }
  const std::string& queue_name(QueueId q) const {
    return queues_[static_cast<std::size_t>(q)];
  }

  NodeId add_node(NodeKind kind, QueueId queue, std::string label,
                  NodeBody body = {}) {
    CRSD_CHECK_MSG(queue >= 0 && queue < num_queues(),
                   "node \"" << label << "\" references unknown queue "
                             << queue);
    GraphNode n;
    n.kind = kind;
    n.queue = queue;
    n.label = std::move(label);
    n.body = std::move(body);
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size()) - 1;
  }

  /// `to` may not start before `from` finishes.
  void add_edge(NodeId from, NodeId to) {
    CRSD_CHECK_MSG(from >= 0 && from < num_nodes() && to >= 0 &&
                       to < num_nodes() && from != to,
                   "bad edge " << from << " -> " << to);
    nodes_[static_cast<std::size_t>(from)].outs.push_back(to);
    nodes_[static_cast<std::size_t>(to)].deps.push_back(from);
  }

  /// Registers an async completion callback, invoked on the worker thread
  /// that executed the node, after its finish time is recorded.
  void on_complete(NodeId n, std::function<void(NodeId)> cb) {
    nodes_[static_cast<std::size_t>(n)].on_complete = std::move(cb);
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const GraphNode& node(NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)];
  }

  /// Structural validation: rejects dependency cycles, *including* cycles
  /// created by queue ordering (a node depending on a later node of its own
  /// queue can never run even though the explicit edges are acyclic).
  /// Returns kGraphCycle diagnostics; empty = schedulable.
  std::vector<check::Diagnostic> validate() const;
  void validate_or_throw() const;

 private:
  std::vector<GraphNode> nodes_;
  std::vector<std::string> queues_;
};

/// Per-node execution record on the virtual timeline.
struct NodeRun {
  bool executed = false;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  double modeled_seconds = 0.0;
  std::uint64_t wall_ns = 0;  ///< real time the body took on its worker
};

struct GraphRunStats {
  double makespan_seconds = 0.0;          ///< max finish over executed nodes
  std::vector<NodeRun> nodes;             ///< indexed by NodeId
  std::vector<double> queue_busy_seconds; ///< sum of modeled time per queue

  /// Total modeled seconds of all executed nodes of one kind.
  double kind_seconds(const TaskGraph& g, NodeKind kind) const {
    double total = 0.0;
    for (NodeId i = 0; i < g.num_nodes(); ++i) {
      if (g.node(i).kind == kind &&
          nodes[static_cast<std::size_t>(i)].executed) {
        total += nodes[static_cast<std::size_t>(i)].modeled_seconds;
      }
    }
    return total;
  }

  /// Overlap efficiency: the pipeline lower bound max(per-queue busy time)
  /// over the achieved makespan. 1.0 = transfers fully hidden behind the
  /// busiest engine; the gap is pipeline fill/drain.
  double overlap_efficiency() const {
    double lower_bound = 0.0;
    for (double b : queue_busy_seconds) lower_bound = std::max(lower_bound, b);
    return makespan_seconds > 0.0 ? lower_bound / makespan_seconds : 1.0;
  }
};

/// Completion handle for one node (async waiters; the graph run itself
/// blocks in GraphExecutor::run on the pool).
class NodeFuture {
 public:
  NodeFuture() = default;
  /// Blocks until the node finished (or the run abandoned it after an
  /// error elsewhere in the graph).
  void wait() const;
  bool done() const;
  /// Virtual finish time; valid once done and executed.
  double finish_seconds() const;
  bool executed() const;

 private:
  friend class GraphExecutor;
  struct State;
  std::shared_ptr<State> state_;
};

/// Runs one TaskGraph on a ThreadPool: per-queue in-order dispatch, virtual
/// clocks, obs spans per node ("graph/node/<kind>"), nodes-executed and
/// queue-depth metrics. A node body throwing aborts the run: already-running
/// nodes finish, unstarted nodes are skipped, and run() rethrows the first
/// error.
class GraphExecutor {
 public:
  GraphExecutor(ThreadPool& pool, const TaskGraph& graph);
  ~GraphExecutor();

  /// Completion handle for `n`; request before run().
  NodeFuture future(NodeId n);

  /// Executes the graph to completion and returns the timeline. Call once.
  GraphRunStats run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crsd::rt
