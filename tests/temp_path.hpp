// Temp paths for tests that write files.
#pragma once

#include <filesystem>
#include <string>

#include <unistd.h>

namespace gp::test_util {

/// `stem` + this process id + `extension` under the system temp dir: a
/// name no concurrent or leftover run of the suite shares.
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& extension = "") {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()) + extension);
}

}  // namespace gp::test_util
