// Seeded violations for the shared-temp-path rule. In the real tree the
// rule covers tests/, where ctest -j runs every test case in its own
// process: a fixed file name in the shared temp directory races between
// cases, so only tests/temp_path.hh (uniqueTempPath) may build paths
// there. This file is an audit fixture, not part of the build.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

std::string
racyGtestPath()
{
    return ::testing::TempDir() + "fixed_name.csv"; // expect(shared-temp-path)
}

std::string
racyFilesystemPath()
{
    return (std::filesystem::temp_directory_path() / "fixed.mtx").string(); // expect(shared-temp-path)
}

// Mentioning TempDir() in a comment, or a per-test helper, is fine.
std::string
okHelper(const std::string &name)
{
    return uniqueTempPath(name);
}

// A justified suppression reads like this and reports nothing:
std::string
allowedProbe()
{
    // sparch-audit: allow(shared-temp-path, fixture demonstrates an
    // accepted suppression - read-only probe of the directory itself)
    return ::testing::TempDir();
}
