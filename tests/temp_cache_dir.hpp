// Scratch directories for tests: one per tag and test process, so tests
// never see each other's entries or leftovers of earlier runs, removed with
// everything in them when the owner goes away, so a test run leaves
// nothing under the temp directory.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace crsd {

/// <temp>/crsd-<tag>-<pid>. It starts absent — whoever writes into it
/// creates it (JitCompiler makes it owner-only, which its trust check
/// requires) — and is removed on destruction. A function-local static one
/// lives until the process exits, for caches a whole test binary shares.
/// Not copyable: exactly one owner removes it.
struct TempCacheDir {
  std::filesystem::path path;

  explicit TempCacheDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("crsd-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempCacheDir(const TempCacheDir&) = delete;
  TempCacheDir& operator=(const TempCacheDir&) = delete;

  std::string str() const { return path.string(); }
};

}  // namespace crsd
