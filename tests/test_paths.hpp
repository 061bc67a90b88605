// Scratch file paths for tests that write files.
//
// gtest_discover_tests registers every TEST and every TEST_P instance as
// its own ctest entry, so `ctest -j` runs them as concurrent processes. A
// fixed file name under ::testing::TempDir() would then be truncated by
// one test while another reads it; every path here is unique to the
// running test instance and process.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <string>

namespace dsketch {

/// "<TempDir>/dsketch_<suite>.<test>_<pid>_<tag>", with characters that
/// are not file-name safe (the '/' of parameterized names) replaced.
inline std::string unique_temp_path(const std::string& tag) {
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
  return ::testing::TempDir() + "/dsketch_" + name;
}

}  // namespace dsketch
