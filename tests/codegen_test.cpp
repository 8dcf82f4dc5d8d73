// Tests for the runtime code generator and JIT driver: generated-source
// structure (Fig. 6 markers), compiled-codelet numerics vs reference,
// cache behaviour, and error paths.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "temp_cache_dir.hpp"

namespace crsd::codegen {
namespace {

// Per-test-binary JIT cache so tests never collide with a user's cache.
JitCompiler fresh_compiler() {
  static const TempCacheDir dir("test-cache");
  JitCompiler::Options opts;
  opts.cache_dir = dir.str();
  return JitCompiler(opts);
}

Coo<double> fig2_matrix() {
  Coo<double> a(6, 9);
  auto v = [](index_t r, index_t c) { return 10.0 * r + c + 1.0; };
  for (index_t r : {0, 1}) {
    for (diag_offset_t off : {0, 2, 3, 5, 7}) a.add(r, r + off, v(r, r + off));
  }
  for (index_t r : {2, 3, 4, 5}) {
    a.add(r, r - 2, v(r, r - 2));
    if (r != 4) a.add(r, r - 1, v(r, r - 1));
    a.add(r, r + 2, v(r, r + 2));
  }
  a.add(5, 5, v(5, 5));
  a.canonicalize();
  return a;
}

TEST(CpuCodeletSource, ContainsUnrolledDiagonalsAndConstants) {
  const auto m = build(fig2_matrix(), CrsdConfig{.mrows = 2});
  const std::string src = generate_cpu_codelet_source(m);
  // Index information baked in: pattern ranges, slot strides, offsets.
  EXPECT_NE(src.find("crsd_codelet_diag"), std::string::npos);
  EXPECT_NE(src.find("crsd_codelet_scatter"), std::string::npos);
  EXPECT_NE(src.find("pattern 0: {(NAD,1),(AD,2),(NAD,2)}"),
            std::string::npos);
  EXPECT_NE(src.find("pattern 1: {(AD,2),(NAD,1)}"), std::string::npos);
  // Unrolled lines with immediate offsets (x[r + 2], x[r - 2], ...).
  EXPECT_NE(src.find("* x["), std::string::npos);
  EXPECT_NE(src.find("unit[lane + 0]"), std::string::npos);
  // No index arrays are referenced in the diagonal phase.
  EXPECT_EQ(src.find("crsd_dia_index"), std::string::npos);
}

TEST(CpuCodeletSource, EmptyScatterGeneratesNoLoop) {
  const auto a = dense_band(128, 2);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  ASSERT_EQ(m.num_scatter_rows(), 0);
  const std::string src = generate_cpu_codelet_source(m);
  EXPECT_NE(src.find("_scatter"), std::string::npos);
  EXPECT_EQ(src.find("scatter_rowno[b + l]"), std::string::npos);
  // The probe is the loop's store: with scatter rows it is there.
  Rng rng(3);
  Coo<double> s = dense_band(128, 2);
  inject_scatter(s, 8, rng);
  const auto ms = build(s, CrsdConfig{.mrows = 32});
  ASSERT_GT(ms.num_scatter_rows(), 0);
  EXPECT_NE(generate_cpu_codelet_source(ms).find("scatter_rowno[b + l]"),
            std::string::npos);
}

TEST(OpenClSource, Fig6StructureMarkers) {
  const auto m = build(fig2_matrix(), CrsdConfig{.mrows = 2});
  const std::string src = generate_opencl_kernel_source(m);
  EXPECT_NE(src.find("__kernel void crsd_spmv"), std::string::npos);
  EXPECT_NE(src.find("get_group_id(0)"), std::string::npos);
  EXPECT_NE(src.find("switch ("), std::string::npos);
  EXPECT_NE(src.find("case 0:"), std::string::npos);
  EXPECT_NE(src.find("case 1:"), std::string::npos);
  // AD groups are staged through local memory behind barriers.
  EXPECT_NE(src.find("__local"), std::string::npos);
  EXPECT_NE(src.find("barrier(CLK_LOCAL_MEM_FENCE);"), std::string::npos);
  EXPECT_NE(src.find("xbuf[local_id + 1]"), std::string::npos);
  // Scatter tail present and double-precision pragma enabled.
  EXPECT_NE(src.find("scatter_rowno[sid]"), std::string::npos);
  EXPECT_NE(src.find("cl_khr_fp64"), std::string::npos);
}

TEST(OpenClSource, NoLocalMemoryVariantHasNoBarriers) {
  const auto m = build(fig2_matrix(), CrsdConfig{.mrows = 2});
  OpenClCodeletOptions opts;
  opts.use_local_memory = false;
  const std::string src = generate_opencl_kernel_source(m, opts);
  EXPECT_EQ(src.find("barrier("), std::string::npos);
}

TEST(OpenClSource, FloatVariantSkipsFp64Pragma) {
  const auto a = fig2_matrix().cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = 2});
  const std::string src = generate_opencl_kernel_source(m);
  EXPECT_EQ(src.find("cl_khr_fp64"), std::string::npos);
  EXPECT_NE(src.find("float sum"), std::string::npos);
}

TEST(Jit, CompilerIsAvailableInThisEnvironment) {
  // The whole point of this reproduction is runtime codegen; the test
  // environment must provide a compiler.
  EXPECT_TRUE(JitCompiler::compiler_available());
}

TEST(Jit, CompileLoadRunFig2) {
  const auto a = fig2_matrix();
  const auto m = build(a, CrsdConfig{.mrows = 2});
  JitCompiler compiler = fresh_compiler();
  const CrsdJitKernel<double> kernel(m, compiler);
  std::vector<double> x(9), want(6), got(6, -1.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3 * double(i) - 1.0;
  a.spmv_reference(x.data(), want.data());
  kernel.spmv(m, x.data(), got.data());
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(got[i], want[i], 1e-12) << i;
}

TEST(Jit, DiskCacheHitsOnSecondBuild) {
  const auto a = dense_band(256, 3);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  JitCompiler compiler = fresh_compiler();
  const CrsdJitKernel<double> k1(m, compiler);
  EXPECT_EQ(compiler.compilations(), 1);
  EXPECT_EQ(compiler.cache_hits(), 0);
  const CrsdJitKernel<double> k2(m, compiler);
  EXPECT_EQ(compiler.compilations(), 1);
  EXPECT_EQ(compiler.cache_hits(), 1);
  EXPECT_EQ(k1.source(), k2.source());
}

TEST(Jit, CompileErrorCarriesDiagnostics) {
  JitCompiler compiler = fresh_compiler();
  try {
    compiler.compile_and_load("this is not C++\n");
    FAIL() << "expected crsd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("JIT compilation failed"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("error"), std::string::npos);
  }
}

TEST(Jit, MissingSymbolThrows) {
  JitCompiler compiler = fresh_compiler();
  JitLibrary lib =
      compiler.compile_and_load("extern \"C\" int crsd_answer() { return 42; }\n");
  auto fn = lib.symbol_as<int (*)()>("crsd_answer");
  EXPECT_EQ(fn(), 42);
  EXPECT_THROW(lib.symbol("nope_not_here"), Error);
}

// --- The disk cache fails closed. -------------------------------------------

constexpr const char* kGenuine =
    "extern \"C\" int crsd_answer() { return 42; }\n";

/// An empty directory under the temp directory, unique to this process,
/// removed when `scratch` goes.
const std::filesystem::path& fresh_dir(const TempCacheDir& scratch) {
  std::filesystem::create_directories(scratch.path);
  return scratch.path;
}

JitCompiler compiler_at(const std::filesystem::path& dir) {
  JitCompiler::Options opts;
  opts.cache_dir = dir.string();
  return JitCompiler(opts);
}

/// Puts an object that answers 666 where a compiler caching in `dir` looks
/// for kGenuine's object, as another user with write access could.
void plant_foreign_object(const std::filesystem::path& dir) {
  JitCompiler elsewhere = fresh_compiler();
  const std::string foreign_path =
      elsewhere
          .compile_and_load("extern \"C\" int crsd_answer() { return 666; }\n")
          .path();
  std::filesystem::copy_file(
      foreign_path, compiler_at(dir).object_path_for(kGenuine),
      std::filesystem::copy_options::overwrite_existing);
}

/// Loads kGenuine through `compiler` and calls it. `object`, when given,
/// receives the loaded object's path.
int answer_from(JitCompiler& compiler, std::string* object = nullptr) {
  const JitLibrary lib = compiler.compile_and_load(kGenuine);
  if (object != nullptr) *object = lib.path();
  return lib.symbol_as<int (*)()>("crsd_answer")();
}

/// Removes the private mkdtemp directory a compiler that distrusted its
/// cache compiled `object` into.
void remove_private_dir(const std::string& object) {
  std::filesystem::remove_all(std::filesystem::path(object).parent_path());
}

TEST(Jit, PlantedObjectInWorldWritableCacheIsNotLoaded) {
  const TempCacheDir scratch("test-world-writable");
  const auto& dir = fresh_dir(scratch);
  std::filesystem::permissions(dir, std::filesystem::perms::all);
  plant_foreign_object(dir);
  JitCompiler compiler = compiler_at(dir);
  std::string object;
  EXPECT_EQ(answer_from(compiler, &object), 42);
  EXPECT_EQ(compiler.compilations(), 1);
  EXPECT_EQ(compiler.cache_hits(), 0);
  // A second build reuses the private directory, still never the planted one.
  EXPECT_EQ(answer_from(compiler), 42);
  EXPECT_EQ(compiler.compilations(), 1);
  remove_private_dir(object);
}

TEST(Jit, PlantedObjectBehindSymlinkedCacheIsNotLoaded) {
  const TempCacheDir scratch("test-symlink-target");
  const auto& real = fresh_dir(scratch);
  std::filesystem::permissions(real, std::filesystem::perms::owner_all);
  plant_foreign_object(real);
  const auto link = std::filesystem::temp_directory_path() /
                    ("crsd-test-symlink-" + std::to_string(::getpid()));
  std::filesystem::remove(link);
  std::filesystem::create_directory_symlink(real, link);
  for (const std::string& dir : {link.string(), link.string() + "/"}) {
    JitCompiler compiler = compiler_at(dir);
    std::string object;
    EXPECT_EQ(answer_from(compiler, &object), 42) << dir;
    EXPECT_EQ(compiler.cache_hits(), 0) << dir;
    remove_private_dir(object);
  }
  std::filesystem::remove(link);
}

TEST(Jit, TruncatedCachedObjectIsRecompiled) {
  const TempCacheDir scratch("test-truncated");
  const auto& dir = fresh_dir(scratch);
  std::string path;
  {
    JitCompiler first = compiler_at(dir);
    EXPECT_EQ(answer_from(first), 42);
    path = first.object_path_for(kGenuine);
  }  // unloaded, so the next dlopen reads the file again
  std::filesystem::resize_file(path, 64);
  JitCompiler compiler = compiler_at(dir);
  EXPECT_EQ(answer_from(compiler), 42);
  EXPECT_EQ(compiler.compilations(), 1);
  EXPECT_EQ(compiler.cache_hits(), 0);
  EXPECT_GT(std::filesystem::file_size(path), 64u);
}

/// Sets, or with nullptr unsets, an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_.has_value() ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Jit, FreshDefaultCacheDirectoryIsPrivate) {
  const TempCacheDir scratch("test-tmpdir");
  const auto& tmp = fresh_dir(scratch);
  {
    const ScopedEnv tmpdir("TMPDIR", tmp.c_str());
    const ScopedEnv cache("CRSD_JIT_CACHE", nullptr);
    JitCompiler compiler;
    EXPECT_EQ(answer_from(compiler), 42);
    EXPECT_EQ(compiler.compilations(), 1);
  }
  struct stat st {};
  const std::filesystem::path dir =
      tmp / ("crsd-jit-cache-" + std::to_string(::geteuid()));
  ASSERT_EQ(::lstat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  EXPECT_EQ(st.st_mode & 0777, 0700u);
}

class JitSuiteMatrices : public ::testing::TestWithParam<int> {};

TEST_P(JitSuiteMatrices, CompiledCodeletMatchesInterpreted) {
  const auto& spec = paper_matrix(GetParam());
  const auto a = spec.generate(0.02);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  JitCompiler compiler = fresh_compiler();
  const CrsdJitKernel<double> kernel(m, compiler);
  Rng rng(40);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> interp(static_cast<std::size_t>(a.num_rows())),
      jit(static_cast<std::size_t>(a.num_rows()), -1.0),
      jit_par(static_cast<std::size_t>(a.num_rows()), -1.0);
  m.spmv(x.data(), interp.data());
  kernel.spmv(m, x.data(), jit.data());
  ThreadPool pool(4);
  kernel.spmv_parallel(pool, m, x.data(), jit_par.data());
  for (std::size_t i = 0; i < interp.size(); ++i) {
    // Identical accumulation order -> bitwise equality.
    EXPECT_EQ(jit[i], interp[i]) << "row " << i;
    EXPECT_EQ(jit_par[i], interp[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, JitSuiteMatrices,
                         ::testing::Values(3, 5, 9, 18, 21),
                         [](const auto& suite_info) {
                           return paper_matrix(suite_info.param).name;
                         });

TEST(Jit, SinglePrecisionCodelet) {
  Rng rng(41);
  const auto a = astro_convection(8, 8, 5, true, rng).cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = 32});
  JitCompiler compiler = fresh_compiler();
  const CrsdJitKernel<float> kernel(m, compiler);
  EXPECT_NE(kernel.source().find("using T = float;"), std::string::npos);
  std::vector<float> x(static_cast<std::size_t>(a.num_cols()), 0.5f);
  std::vector<float> want(static_cast<std::size_t>(a.num_rows())),
      got(static_cast<std::size_t>(a.num_rows()));
  m.spmv(x.data(), want.data());
  kernel.spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

}  // namespace
}  // namespace crsd::codegen
