// Scratch file paths for tests that write files.
//
// gtest_discover_tests registers every TEST and every TEST_P instance as
// its own ctest entry, so `ctest -j` runs them as concurrent processes. A
// fixed file name under ::testing::TempDir() would then be truncated by
// one test while another reads it; every path here is unique to the
// running test instance and process. The pid in the name also means a
// leftover is never reused, so each path is owned by a TempPath that
// deletes it at scope exit.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace dsketch {

/// Owns a scratch path: at scope exit removes the file or directory tree
/// there and the "<path>.tmp" sibling an interrupted save_file leaves.
/// Converts to the path string, so it passes wherever a path is taken.
class TempPath {
 public:
  explicit TempPath(std::string path) : path_(std::move(path)) {}
  TempPath(TempPath&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  TempPath& operator=(TempPath&&) = delete;
  ~TempPath() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    std::filesystem::remove(path_ + ".tmp", ignored);
  }

  const std::string& str() const { return path_; }
  operator const std::string&() const& { return path_; }
  // A string taken from a temporary would outlive the deleted file.
  operator const std::string&() const&& = delete;

 private:
  std::string path_;
};

/// "<TempDir>/dsketch_<suite>.<test>_<pid>_<tag>", with characters that
/// are not file-name safe (the '/' of parameterized names) replaced.
inline TempPath unique_temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "_" + std::to_string(::getpid()) + "_" +
                     tag;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  return TempPath(::testing::TempDir() + "/dsketch_" + name);
}

}  // namespace dsketch
