/**
 * @file
 * Per-test temporary file paths.
 *
 * gtest_discover_tests registers every test case as its own ctest
 * entry, so `ctest -j` runs cases of one binary in concurrent
 * processes. Two cases that write the same fixed file name under
 * ::testing::TempDir() race on it. uniqueTempPath() puts the running
 * test's suite and name and the process id in front of the file name,
 * so no two concurrently running cases can share a path.
 */

#ifndef SPARCH_TESTS_TEMP_PATH_HH
#define SPARCH_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace sparch
{

/**
 * A path under ::testing::TempDir() ending in `name`, unique to the
 * running test and process; any stale file there is removed. Calls
 * with the same name inside one test return the same path.
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    std::string tag = "sparch";
    if (const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        tag += '_';
        tag += test->test_suite_name();
        tag += '_';
        tag += test->name();
    }
    // Parameterized names carry '/'; keep the tag one path component
    // without dots, so path stems still end at the caller's name.
    for (char &c : tag) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0)
            c = '_';
    }
    const std::string path = ::testing::TempDir() + tag + '_' +
                             std::to_string(::getpid()) + '_' + name;
    std::remove(path.c_str());
    return path;
}

} // namespace sparch

#endif // SPARCH_TESTS_TEMP_PATH_HH
