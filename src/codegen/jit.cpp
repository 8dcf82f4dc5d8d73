#include "codegen/jit.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crsd::codegen {

namespace fs = std::filesystem;

JitLibrary::~JitLibrary() {
  if (handle_ != nullptr) dlclose(handle_);
}

JitLibrary::JitLibrary(JitLibrary&& o) noexcept
    : handle_(o.handle_), path_(std::move(o.path_)) {
  o.handle_ = nullptr;
}

JitLibrary& JitLibrary::operator=(JitLibrary&& o) noexcept {
  if (this != &o) {
    if (handle_ != nullptr) dlclose(handle_);
    handle_ = o.handle_;
    path_ = std::move(o.path_);
    o.handle_ = nullptr;
  }
  return *this;
}

void* JitLibrary::symbol(const std::string& name) const {
  CRSD_CHECK_MSG(handle_ != nullptr, "symbol() on an unloaded JitLibrary");
  dlerror();
  void* sym = dlsym(handle_, name.c_str());
  const char* err = dlerror();
  CRSD_CHECK_MSG(err == nullptr && sym != nullptr,
                 "cannot resolve symbol '" << name << "' in " << path_ << ": "
                                           << (err ? err : "null"));
  return sym;
}

namespace {

std::string default_compiler() {
  if (const char* cxx = std::getenv("CXX"); cxx != nullptr && *cxx != '\0') {
    return cxx;
  }
  return "c++";
}

std::string default_flags() {
  if (const char* flags = std::getenv("CRSD_JIT_FLAGS");
      flags != nullptr && *flags != '\0') {
    return flags;
  }
  // Target the host ISA — compiling for the machine that will run the
  // codelet is the point of runtime codegen (the paper's clBuildProgram
  // does the same for its device). -ffp-contract=off keeps the wider
  // vectors from introducing fused multiply-adds, so per-element results
  // stay bit-identical to the ahead-of-time kernels, which the parity
  // tests assert.
  return "-O3 -march=native -ffp-contract=off -shared -fPIC -std=c++20";
}

std::string default_cache_dir() {
  if (const char* dir = std::getenv("CRSD_JIT_CACHE");
      dir != nullptr && *dir != '\0') {
    return dir;
  }
  // One directory per user: a directory another user owns is untrusted,
  // and falling back to a fresh private directory would recompile every
  // codelet in every process.
  return (fs::temp_directory_path() /
          ("crsd-jit-cache-" + std::to_string(::geteuid())))
      .string();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// True if objects found in `dir` may be loaded: lstat shows a real
/// directory (not a symlink), owned by the effective user, with neither the
/// group-write nor the other-write bit. Anything else could hold an object
/// planted by another user.
bool trusted_dir(const std::string& dir) {
  struct stat st {};
  if (::lstat(dir.c_str(), &st) != 0) return false;
  return S_ISDIR(st.st_mode) && st.st_uid == ::geteuid() &&
         (st.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

}  // namespace

JitCompiler::JitCompiler() : JitCompiler(Options()) {}

JitCompiler::JitCompiler(Options opts) : opts_(std::move(opts)) {
  if (opts_.compiler.empty()) opts_.compiler = default_compiler();
  if (opts_.flags.empty()) opts_.flags = default_flags();
  if (opts_.cache_dir.empty()) opts_.cache_dir = default_cache_dir();
  // lstat follows a symlink named with a trailing slash.
  while (opts_.cache_dir.size() > 1 && opts_.cache_dir.back() == '/') {
    opts_.cache_dir.pop_back();
  }
}

bool JitCompiler::compiler_available() {
  static const bool available = [] {
    const std::string cmd =
        default_compiler() + " --version > /dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
  }();
  return available;
}

std::string JitCompiler::object_name_for(const std::string& source) const {
  return "crsd_" +
         fnv1a64_hex(opts_.compiler + "\x1f" + opts_.flags + "\x1f" + source) +
         ".so";
}

std::string JitCompiler::object_path_for(const std::string& source) const {
  return (fs::path(opts_.cache_dir) / object_name_for(source)).string();
}

std::string JitCompiler::object_dir() {
  std::error_code ec;
  const fs::path dir = opts_.cache_dir;
  if (dir.has_parent_path()) fs::create_directories(dir.parent_path(), ec);
  ::mkdir(dir.c_str(), 0700);  // an existing directory keeps its mode
  if (trusted_dir(opts_.cache_dir)) return opts_.cache_dir;
  if (private_dir_.empty()) {
    std::string tmpl = (fs::temp_directory_path() / "crsd-jit-XXXXXX").string();
    CRSD_CHECK_MSG(::mkdtemp(tmpl.data()) != nullptr,
                   "cannot create a private JIT directory "
                       << tmpl << ": " << std::strerror(errno));
    private_dir_ = tmpl;
    CRSD_LOG_WARN("jit: cache directory "
                  << opts_.cache_dir
                  << " is not trusted (it must be a real directory owned by "
                     "this user and writable by no one else); compiling into "
                  << private_dir_ << " instead");
  }
  return private_dir_;
}

JitLibrary JitCompiler::compile_and_load(const std::string& source) {
  obs::Span span("jit/compile_and_load", "source_bytes",
                 static_cast<std::int64_t>(source.size()));
  obs::Registry& reg = obs::Registry::global();
  static obs::Histogram& source_bytes = reg.histogram("jit.source_bytes");
  static obs::Counter& disk_hits = reg.counter("jit.cache_hits");
  static obs::Counter& compiles = reg.counter("jit.compilations");
  static obs::Histogram& compile_us = reg.histogram("jit.compile_us");
  source_bytes.record(source.size());

  const fs::path so_path = fs::path(object_dir()) / object_name_for(source);

  JitLibrary lib;
  lib.path_ = so_path.string();
  if (fs::exists(so_path)) {
    lib.handle_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (lib.handle_ != nullptr) {
      ++cache_hits_;
      disk_hits.add(1);
      return lib;
    }
    // A torn or foreign object is a miss: recompile and rename over it.
    CRSD_LOG_WARN("jit: cached object " << so_path << " does not load ("
                                        << dlerror() << "); recompiling");
  }
  {  // miss: the compile span ends before the load
    ++compilations_;
    compiles.add(1);
    obs::Span compile_span("jit/compile");
    Timer compile_timer;
    const fs::path src_path = fs::path(so_path).replace_extension(".cpp");
    const fs::path log_path = fs::path(so_path).replace_extension(".log");
    // Every file this attempt touches gets a unique temp name and is
    // published into the cache only by atomic rename: concurrent builds of
    // the same entry — other processes (pid) or other threads of this one
    // (counter) — each work on private files and each publish a complete
    // artifact, never a torn one. Whoever renames last wins with byte-
    // identical content. A pre-existing truncated .cpp at the canonical
    // path (e.g. a killed earlier run) is never read, only renamed over.
    // The tag goes before the extension (crsd_<key>.tmp.<pid>.<n>.cpp):
    // the compiler driver picks the input language by suffix.
    static std::atomic<unsigned> attempt_counter{0};
    std::string base = so_path.string();
    base.resize(base.size() - 3);  // drop ".so"
    base += ".tmp.";
    base += std::to_string(::getpid());
    base += '.';
    base += std::to_string(attempt_counter.fetch_add(1));
    std::string src_tmp_s = base;
    src_tmp_s += ".cpp";
    std::string log_tmp_s = base;
    log_tmp_s += ".log";
    std::string so_tmp_s = base;
    so_tmp_s += ".so";
    const fs::path src_tmp = src_tmp_s;
    const fs::path log_tmp = log_tmp_s;
    const fs::path so_tmp = so_tmp_s;
    {
      std::ofstream out(src_tmp);
      out << source;
      out.flush();
      CRSD_CHECK_MSG(out.good(), "cannot write JIT source " << src_tmp);
    }
    std::ostringstream cmd;
    cmd << opts_.compiler << ' ' << opts_.flags << " -o " << so_tmp << ' '
        << src_tmp << " > " << log_tmp << " 2>&1";
    CRSD_LOG_INFO("jit: " << cmd.str());
    const int rc = std::system(cmd.str().c_str());
    std::error_code ec;  // publishing source/log is best-effort
    if (rc != 0) {
      const std::string diagnostics = read_file(log_tmp);
      // Leave the failing source/log at their canonical names for debugging.
      fs::rename(src_tmp, src_path, ec);
      fs::rename(log_tmp, log_path, ec);
      fs::remove(so_tmp, ec);
      throw Error("JIT compilation failed (exit " + std::to_string(rc) +
                  ") for " + src_path.string() + ":\n" + diagnostics);
    }
    fs::rename(so_tmp, so_path);
    fs::rename(src_tmp, src_path, ec);
    fs::rename(log_tmp, log_path, ec);
    compile_us.record(static_cast<std::uint64_t>(compile_timer.micros()));
  }
  lib.handle_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  CRSD_CHECK_MSG(lib.handle_ != nullptr,
                 "dlopen failed for " << so_path << ": " << dlerror());
  return lib;
}

}  // namespace crsd::codegen
