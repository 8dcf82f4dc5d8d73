// Runtime compilation driver — the host-side analogue of OpenCL's
// clBuildProgram. Generated codelet source is compiled to a shared object
// with the system C++ compiler and loaded with dlopen. Objects are cached on
// disk keyed by a hash of (source, flags), so a structure that was compiled
// once loads instantly in later runs — mirroring OpenCL binary caching.
//
// The cache fails closed. A missing cache directory is created with mode
// 0700, and objects are loaded from it only while lstat shows a real
// directory (not a symlink) owned by the effective user and writable by no
// one else. Otherwise the compiler logs one warning and compiles into a
// private mkdtemp directory, never loading from the untrusted one. A cached
// object that dlopen rejects is a miss and is recompiled.
#pragma once

#include <string>

#include "common/types.hpp"

namespace crsd::codegen {

/// Whether a JIT factory runs the static codelet lint before compiling.
/// kYes (the default everywhere) gates the compiler behind the lint and
/// falls back (nullopt) on findings; kNo hands the source straight to the
/// compiler — for callers that already linted or deliberately bypass it.
enum class Checked { kNo, kYes };

/// A loaded shared object. Movable, closes on destruction.
class JitLibrary {
 public:
  JitLibrary() = default;
  ~JitLibrary();
  JitLibrary(JitLibrary&& o) noexcept;
  JitLibrary& operator=(JitLibrary&& o) noexcept;
  JitLibrary(const JitLibrary&) = delete;
  JitLibrary& operator=(const JitLibrary&) = delete;

  bool loaded() const { return handle_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Resolves a symbol; throws crsd::Error if missing.
  void* symbol(const std::string& name) const;

  template <typename Fn>
  Fn symbol_as(const std::string& name) const {
    return reinterpret_cast<Fn>(symbol(name));
  }

 private:
  friend class JitCompiler;
  void* handle_ = nullptr;
  std::string path_;
};

/// Compiles C++ source strings into loadable shared objects.
class JitCompiler {
 public:
  struct Options {
    /// Compiler executable; empty -> $CXX, then "c++".
    std::string compiler;
    /// Empty -> $CRSD_JIT_FLAGS, then the -O3 -march=native default.
    /// Codelets are pure straight-line loop nests, so the vectorizer tier
    /// and the host's full vector width are worth paying for at compile
    /// time; -ffp-contract=off rides along so the wider ISA cannot fuse
    /// multiply-adds, keeping JIT and ahead-of-time code bit-identical.
    std::string flags;
    /// Cache directory; empty -> $CRSD_JIT_CACHE, then
    /// <tmpdir>/crsd-jit-cache-<euid>, one per user, so users who share a
    /// tmpdir each find a directory they own. Trusted only as described
    /// above.
    std::string cache_dir;
  };

  /// Uses default Options (env-derived compiler and cache directory).
  JitCompiler();
  explicit JitCompiler(Options opts);

  /// True if a working compiler was found (checked lazily on first use).
  static bool compiler_available();

  /// Compiles `source` (or reuses the cached object) and loads it.
  /// Throws crsd::Error with the compiler diagnostics on failure.
  JitLibrary compile_and_load(const std::string& source);

  /// Where an object for `source` would be cached.
  std::string object_path_for(const std::string& source) const;

  /// Number of compile_and_load calls that were served from the disk cache.
  int cache_hits() const { return cache_hits_; }
  int compilations() const { return compilations_; }

 private:
  std::string object_name_for(const std::string& source) const;
  /// The cache directory if it is trusted, else the private directory.
  std::string object_dir();

  Options opts_;
  std::string private_dir_;  ///< mkdtemp fallback, made on first need
  int cache_hits_ = 0;
  int compilations_ = 0;
};

}  // namespace crsd::codegen
