// crsd.hpp — the library's single public entry point. Applications include
// this one header and link the crsd_* libraries; every subsystem needed for
// the paper's pipeline (ingest -> build CRSD -> tune -> simulated-GPU SpMV,
// or codegen/JIT -> host SpMV -> solvers) is pulled in, together with the
// observability layer (obs::Span / obs::Registry, CRSD_TRACE/CRSD_METRICS).
//
// Deliberately not included:
//  * check/memcheck.hpp (simulator checking mode) — needs the crsd_check
//    library; include it directly where a checker is attached.
//  * hybrid/ (CPU+GPU hybrid execution) and solver/gpu_cg.hpp — need
//    crsd_hybrid; include directly.
//  * runtime/ (async task-graph runtime, multi-device sharded SpMV) — needs
//    the crsd_runtime library; include runtime/task_graph.hpp /
//    runtime/multi_device.hpp directly.
#pragma once

// Common utilities: errors, fixed-width types, RNG, timers, thread pool.
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

// Tolerance-gated comparison for compact-storage parity checks.
#include "check/close.hpp"

// Observability: trace spans + metrics registry.
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Matrix ingest, generators, and analysis.
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/paper_suite.hpp"
#include "matrix/reorder.hpp"
#include "matrix/spy.hpp"
#include "matrix/stats.hpp"

// Baseline sparse formats (Bell & Garland set + blocked/delta variants).
#include "formats/bcsr.hpp"
#include "formats/csr.hpp"
#include "formats/dcsr.hpp"
#include "formats/dia.hpp"
#include "formats/ell.hpp"
#include "formats/format.hpp"
#include "formats/hyb.hpp"

// CRSD container: the unified build entry point (crsd::build/BuildOptions),
// builder internals, matrix, row-region container, inspection,
// persistence, updates.
#include "core/build_api.hpp"
#include "core/builder.hpp"
#include "core/crsd_matrix.hpp"
#include "core/partition.hpp"
#include "core/storage_mode.hpp"
#include "core/dump.hpp"
#include "core/inspect.hpp"
#include "core/serialize.hpp"
#include "core/update.hpp"

// Simulated GPU device and launch machinery.
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"

// Static kernel-access analyzer: prove bounds/race/coalescing properties of
// a CRSD launch before executing it.
#include "analysis/analyze.hpp"
#include "analysis/interval.hpp"
#include "analysis/launch_model.hpp"

// Kernels: per-format simulated-GPU SpMV, the dispatcher, autotuner, SpMM,
// and the autotuned partitioned build with its launch.
#include "kernels/cpu_spmm.hpp"
#include "kernels/crsd_autotune.hpp"
#include "kernels/crsd_gpu.hpp"
#include "kernels/gpu_spmv.hpp"
#include "kernels/partitioned_spmv.hpp"

// Runtime code generation: the JIT-compiled CPU codelet and the Fig. 6
// OpenCL kernel text. The simulated GPU runs kernels::gpu_spmv_crsd.
#include "codegen/crsd_codegen.hpp"
#include "codegen/crsd_jit_kernel.hpp"
#include "codegen/jit.hpp"

// Iterative solvers on CRSD SpMV.
#include "solver/block_cg.hpp"
#include "solver/solvers.hpp"

// CPU roofline model (autotuner pruning, format advisor).
#include "perf/cpu_model.hpp"
