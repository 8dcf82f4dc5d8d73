// Observability subsystem tests: span recording, nesting, and cross-thread
// merge order; the Chrome-trace exporter's schema; the metrics registry and
// its JSON dump; the zero-allocation guarantee of disabled spans; and the
// kernels::spmv dispatcher honoring SpmvOptions (work-group size, CRSD
// execution options, tuning-cache defaulting).
#include "crsd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it, so
// tests can assert that a code path allocates nothing. Deallocation
// functions are forwarded unchanged.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace crsd {
namespace {

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// Spans whose name starts with `prefix`, in snapshot (start-time) order.
std::vector<obs::SpanEvent> spans_with_prefix(const std::string& prefix) {
  std::vector<obs::SpanEvent> out;
  for (const obs::SpanEvent& ev : obs::trace_snapshot()) {
    if (std::string(ev.name).rfind(prefix, 0) == 0) out.push_back(ev);
  }
  return out;
}

TEST(Trace, SpanNestingAndThreadMergeGolden) {
  obs::clear_trace();
  obs::enable_tracing();
  {
    obs::Span parent("obs_test/parent");
    { obs::Span c1("obs_test/child1", "step", 1); }
    { obs::Span c2("obs_test/child2", "step", 2); }
  }
  std::thread worker([] { obs::Span w("obs_test/worker"); });
  worker.join();
  obs::disable_tracing();

  const std::vector<obs::SpanEvent> got = spans_with_prefix("obs_test/");
  ASSERT_EQ(got.size(), 4u);

  // The merged snapshot is start-ordered with longer-first tie-breaks, so
  // the enclosing span leads its children, and the worker span (opened
  // after the parent scope closed, on the monotonic clock) comes last.
  EXPECT_STREQ(got[0].name, "obs_test/parent");
  EXPECT_STREQ(got[3].name, "obs_test/worker");

  const obs::SpanEvent& parent = got[0];
  const obs::SpanEvent& worker_span = got[3];
  for (std::size_t i = 1; i <= 2; ++i) {
    const obs::SpanEvent& child = got[i];
    EXPECT_EQ(child.tid, parent.tid) << "children share the parent's thread";
    EXPECT_GE(child.start_ns, parent.start_ns);
    EXPECT_LE(child.start_ns + child.dur_ns, parent.start_ns + parent.dur_ns)
        << "child " << child.name << " not contained in its parent";
  }
  EXPECT_NE(worker_span.tid, parent.tid);
  EXPECT_GE(worker_span.start_ns, parent.start_ns + parent.dur_ns);

  // Numeric payloads survive the ring and the merge.
  EXPECT_STREQ(got[1].arg_name, "step");
  EXPECT_EQ(got[1].arg, 1);
  EXPECT_EQ(got[2].arg, 2);
}

TEST(Trace, DisabledSpanIsInvisibleAndEndIsIdempotent) {
  obs::clear_trace();
  obs::disable_tracing();
  { obs::Span s("obs_test_off/never"); }
  obs::Span explicit_noop(nullptr);
  EXPECT_FALSE(explicit_noop.active());

  obs::enable_tracing();
  obs::Span ended("obs_test_off/ended");
  ended.end();
  ended.end();  // second end must not record a duplicate
  obs::disable_tracing();

  EXPECT_TRUE(spans_with_prefix("obs_test_off/never").empty());
  EXPECT_EQ(spans_with_prefix("obs_test_off/ended").size(), 1u);
}

TEST(Trace, ChromeTraceJsonSchema) {
  obs::clear_trace();
  obs::enable_tracing();
  { obs::Span s("obs_schema/span", "items", 42); }
  obs::disable_tracing();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs_schema/span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"crsd\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"items\": 42}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos);

  // Crude well-formedness: balanced braces/brackets, no trailing comma
  // before a closing bracket.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Trace, WriteChromeTraceFileRoundtrip) {
  obs::clear_trace();
  obs::enable_tracing();
  { obs::Span s("obs_file/span"); }
  obs::disable_tracing();

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("crsd-obs-test-" + std::to_string(::getpid()) + ".json"))
          .string();
  ASSERT_TRUE(obs::write_chrome_trace_file(path));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("obs_file/span"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Trace, DisabledSpansAllocateNothing) {
  obs::disable_tracing();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::Span s("obs_test/disabled", "i", i);
    obs::Span noop(nullptr);
    (void)s;
    (void)noop;
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "constructing disabled spans must not allocate";
}

TEST(Trace, InternReturnsStablePointers) {
  const char* a = obs::intern("obs_test/interned-name");
  const char* b = obs::intern(std::string("obs_test/interned-") + "name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "obs_test/interned-name");
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&c, &reg.counter("obs_test.counter"))
      << "lookups must return the same stable reference";

  obs::Gauge& g = reg.gauge("obs_test.gauge");
  g.set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);

  obs::Histogram& h = reg.histogram("obs_test.hist");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(0)), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(1)), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(2)), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(1024)), 1u);
  EXPECT_EQ(obs::Histogram::bucket_floor(obs::Histogram::bucket_of(1024)),
            1024u);
  EXPECT_EQ(obs::Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_floor(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_floor(2), 2u);
}

TEST(Metrics, HistogramQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty

  // Buckets 0 and 1 hold a single value each, so quantiles there are exact.
  for (int i = 0; i < 10; ++i) h.record(0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (int i = 0; i < 90; ++i) h.record(1);
  EXPECT_EQ(h.quantile(0.05), 0.0);
  EXPECT_EQ(h.quantile(0.99), 1.0);

  // Uniform 1..1000: the bucket resolution bounds every quantile within a
  // factor of 2 of the true order statistic, and estimates are monotone.
  h.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p90, 450.0);
  EXPECT_LE(p90, 1800.0);
  EXPECT_GE(p99, 512.0);  // rank 990 lives in the [512, 1024) bucket
  EXPECT_LT(p99, 1024.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);

  // q is clamped; extremes bracket the recorded range.
  EXPECT_GE(h.quantile(-1.0), 0.0);
  EXPECT_LE(h.quantile(2.0), 1024.0);
}

TEST(Metrics, RegistryJsonShape) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("obs_test.json.counter").reset();
  reg.counter("obs_test.json.counter").add(7);
  reg.gauge("obs_test.json.gauge").set(0.5);
  obs::Histogram& h = reg.histogram("obs_test.json.hist");
  h.reset();
  h.record(5);  // bit_width(5) == 3, bucket floor 4

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.gauge\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.hist\": {\"count\": 1, \"sum\": 5, "
                      "\"p50\": 6, \"p90\": 6, \"p99\": 6, "
                      "\"buckets\": {\"4\": 1}}"),
            std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Metrics, InstrumentedSubsystemsReportIntoTheRegistry) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& launches = reg.counter("gpusim.launches");
  obs::Counter& pool_tasks = reg.counter("pool.tasks_executed");
  const std::uint64_t launches_before = launches.value();
  const std::uint64_t tasks_before = pool_tasks.value();

  const Coo<double> a = stencil_5pt_2d(16, 8);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(m.num_rows()), 0.0);
  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  kernels::gpu_spmv_crsd(dev, m, x.data(), y.data());

  ThreadPool pool(2);
  pool.parallel_for(0, 64, [](index_t, index_t, int) {});

  EXPECT_GT(launches.value(), launches_before);
  EXPECT_GT(pool_tasks.value(), tasks_before);
}

// ---------------------------------------------------------------------------
// SpmvOptions through the dispatcher
// ---------------------------------------------------------------------------

TEST(GpuSpmvOptions, WorkGroupSizeReachesTheKernels) {
  const Coo<double> a = stencil_5pt_2d(10, 10);  // 100 rows: padding differs
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y_small(static_cast<std::size_t>(a.num_rows()), 0.0);
  std::vector<double> y_large = y_small;

  kernels::SpmvOptions small;
  small.work_group_size = 64;
  gpusim::Device dev_small(gpusim::DeviceSpec::tesla_c2050());
  const auto r_small = kernels::spmv(dev_small, Format::kEll, a, x.data(),
                                         y_small.data(), small);

  kernels::SpmvOptions large;
  large.work_group_size = 256;
  gpusim::Device dev_large(gpusim::DeviceSpec::tesla_c2050());
  const auto r_large = kernels::spmv(dev_large, Format::kEll, a, x.data(),
                                         y_large.data(), large);

  // 100 rows pad to 2x64 lanes (4 wavefronts) vs 1x256 (8 wavefronts): the
  // option demonstrably reached the launch. Results must not change.
  EXPECT_NE(r_small.counters.wavefronts, r_large.counters.wavefronts);
  EXPECT_EQ(y_small, y_large);
}

TEST(GpuSpmvOptions, CrsdOptionsReachTheKernel) {
  const Coo<double> a = stencil_5pt_2d(16, 8);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y_local(static_cast<std::size_t>(a.num_rows()), 0.0);
  std::vector<double> y_global = y_local;

  kernels::SpmvOptions with_local;
  with_local.crsd_config = CrsdConfig{.mrows = 32};
  with_local.crsd.use_local_memory = true;
  gpusim::Device dev_a(gpusim::DeviceSpec::tesla_c2050());
  const auto r_local = kernels::spmv(dev_a, Format::kCrsd, a, x.data(),
                                         y_local.data(), with_local);

  kernels::SpmvOptions without_local;
  without_local.crsd_config = CrsdConfig{.mrows = 32};
  without_local.crsd.use_local_memory = false;
  gpusim::Device dev_b(gpusim::DeviceSpec::tesla_c2050());
  const auto r_global = kernels::spmv(dev_b, Format::kCrsd, a, x.data(),
                                          y_global.data(), without_local);

  EXPECT_EQ(r_global.counters.local_bytes, 0u);
  EXPECT_GT(r_local.counters.local_bytes, 0u);
  EXPECT_EQ(y_local, y_global);
}

/// RAII environment-variable override.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(GpuSpmvOptions, CrsdDefaultsFromTuningCacheAndExplicitConfigWins) {
  const Coo<double> a = stencil_5pt_2d(16, 8);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y_tuned(static_cast<std::size_t>(a.num_rows()), 0.0);
  std::vector<double> y_explicit = y_tuned;

  // Private tuning cache holding one entry for this structure: mrows 32,
  // local memory off — both observably different from the defaults.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("crsd-obs-tune-" + std::to_string(::getpid())))
          .string();
  ScopedEnv env("CRSD_TUNE_CACHE", cache_dir);
  CrsdConfig tuned;
  tuned.mrows = 32;
  const std::string key = kernels::detail::tune_cache_key(
      gpusim::DeviceSpec::tesla_c2050(), a, kernels::AutotuneSpace{},
      kernels::AutotuneOptions{});
  kernels::detail::tune_cache_store(
      cache_dir, (std::filesystem::path(cache_dir) / (key + ".txt")).string(),
      tuned, /*local_memory=*/false, /*seconds=*/1e-6);

  // Default options consult the cache: the cached local-memory decision
  // must reach the launch.
  gpusim::Device dev_tuned(gpusim::DeviceSpec::tesla_c2050());
  const auto r_tuned =
      kernels::spmv(dev_tuned, Format::kCrsd, a, x.data(), y_tuned.data(),
                        kernels::SpmvOptions{});
  EXPECT_EQ(r_tuned.counters.local_bytes, 0u)
      << "cached tuning (local memory off) was not honored";

  // An explicit CrsdConfig pins the build: local memory keeps its stock
  // default (on), proving the cache was not consulted.
  kernels::SpmvOptions explicit_opts;
  explicit_opts.crsd_config = CrsdConfig{.mrows = 32};
  gpusim::Device dev_explicit(gpusim::DeviceSpec::tesla_c2050());
  const auto r_explicit =
      kernels::spmv(dev_explicit, Format::kCrsd, a, x.data(),
                        y_explicit.data(), explicit_opts);
  EXPECT_GT(r_explicit.counters.local_bytes, 0u);

  EXPECT_EQ(y_tuned, y_explicit);
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace crsd
