// Hermetic temp paths for tests that write files (journals, frames).
//
// Each test gets its own directory, made with mkdtemp under gtest's
// TempDir() on first use, so test binaries running in parallel (ctest -j)
// never share a path and no test sees a file an earlier run left behind.
// The directory is removed when the test passes and kept for inspection
// when it fails.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace now {
namespace test_tmp_detail {

struct State {
  std::string dir;  // the running test's directory, empty until used
  int counter = 0;  // names handed out in it
};

inline State& state() {
  static State s;
  return s;
}

class Cleaner final : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    State& s = state();
    if (!s.dir.empty() && !info.result()->Failed()) {
      std::error_code ignored;
      std::filesystem::remove_all(s.dir, ignored);
    }
    s = {};
  }
};

inline const bool kCleanerRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new Cleaner);
  return true;
}();

}  // namespace test_tmp_detail

/// The running test's own directory, created on first use.
inline std::string test_tmp_dir() {
  test_tmp_detail::State& s = test_tmp_detail::state();
  if (s.dir.empty()) {
    std::string name = "test";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name = std::string(info->test_suite_name()) + "." + info->name();
    }
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
    }
    std::string base = ::testing::TempDir();
    if (!base.empty() && base.back() == '/') base.pop_back();
    std::string pattern = base + "/" + name + "_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    s.dir = pattern;
  }
  return s.dir;
}

/// A fresh path `<test dir>/<stem>_<n>`; nothing is created there.
inline std::string test_tmp_path(const std::string& stem) {
  const std::string dir = test_tmp_dir();
  return dir + "/" + stem + "_" +
         std::to_string(test_tmp_detail::state().counter++);
}

/// A fresh, empty directory `<test dir>/<stem>_<n>`.
inline std::string test_tmp_subdir(const std::string& stem) {
  const std::string dir = test_tmp_path(stem);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace now
