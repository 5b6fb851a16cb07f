#pragma once
// A scratch directory for file-backed tests: <temp>/<name>_<pid>, created
// empty and removed with everything in it when the object goes out of
// scope, so a passing test leaves nothing in the temp directory.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pdl::tests {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "_" +
               std::to_string(static_cast<unsigned long>(::getpid())))) {
    std::filesystem::remove_all(path_);  // a stale run's leftovers
    std::filesystem::create_directories(path_);
  }

  ~ScratchDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace pdl::tests
