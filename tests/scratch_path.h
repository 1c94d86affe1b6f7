// Scratch file and directory names for the test suites. Every name carries
// the process id: ctest runs each test in its own process, and the suites
// of two builds (say Release and CDBP_OBS_OFF) may run at the same time on
// one machine, so a name derived from the test alone would be shared.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace cdbp::testutil {

/// `<temp dir>/<pid>_<name>`; the name's extension is kept.
inline std::filesystem::path scratch_path(const std::string& name) {
  std::string unique = std::to_string(::getpid());
  unique.append("_").append(name);
  return std::filesystem::temp_directory_path() / unique;
}

/// scratch_path(prefix + the running gtest test's name).
inline std::filesystem::path test_scratch_dir(const std::string& prefix) {
  std::string name = prefix;
  name.append(
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  return scratch_path(name);
}

}  // namespace cdbp::testutil
