// Per-test scratch paths for tests that write files.
//
// ctest runs every gtest case as its own process (gtest_discover_tests), and
// `ctest -j` runs those processes side by side, so two cases must never share
// a file name.  Every path handed out here lives in a directory private to
// the process (<TempDir>/accu_test.<pid>/) and is prefixed with the running
// test's suite and name, which also keeps cases apart when one binary runs
// them all in sequence.  The directory is removed when the process that
// created it exits (never by a forked child).

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace accu::test {

namespace detail {

class ScratchRoot {
 public:
  ScratchRoot()
      : owner_(::getpid()),
        path_(::testing::TempDir() + "accu_test." + std::to_string(owner_)) {
    std::filesystem::create_directories(path_);
  }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;
  ~ScratchRoot() {
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

inline const std::string& scratch_root() {
  static const ScratchRoot root;
  return root.path();
}

}  // namespace detail

/// <TempDir>/accu_test.<pid>/<Suite>.<Test>.<name>, with any file or
/// directory already there removed.  `name` may not contain a slash.
inline std::string temp_path(const std::string& name) {
  std::string prefix;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    prefix = std::string(info->test_suite_name()) + "." + info->name() + ".";
    // Parameterized names look like "Prefix/Suite.Case/param".
    std::replace(prefix.begin(), prefix.end(), '/', '_');
  }
  const std::string path = detail::scratch_root() + "/" + prefix + name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

/// temp_path(name), created as an empty directory.
inline std::string fresh_dir(const std::string& name) {
  const std::string path = temp_path(name);
  std::filesystem::create_directories(path);
  return path;
}

}  // namespace accu::test
