/**
 * @file
 * Unique per-test temp directories. `ctest -j` runs every discovered
 * TEST as its own process, so two tests (or two shards of a
 * parameterized suite) that write the same fixed file under
 * ::testing::TempDir() race each other. Every checkpoint-, trace- or
 * graph-file-writing test routes its paths through here instead: the
 * directory name folds in the suite name, the test name and the pid,
 * so concurrent shards never collide and a crashed test leaves its
 * artefacts behind for postmortem inspection. slurp() reads such a
 * file back for byte comparison.
 */
#ifndef PGCN_TESTS_TEST_PATHS_HPP
#define PGCN_TESTS_TEST_PATHS_HPP

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace pgcn_test {

/**
 * Directory unique to the currently running test, created on first
 * use. Must be called from inside a TEST body (it reads
 * current_test_info()).
 */
inline std::filesystem::path
uniqueTestDir()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf = "pgcn_";
    leaf += info->test_suite_name();
    leaf += '_';
    leaf += info->name();
    leaf += '_';
#ifdef _WIN32
    leaf += std::to_string(_getpid());
#else
    leaf += std::to_string(::getpid());
#endif
    // Parameterized tests carry '/' in both suite and test names;
    // keep the whole thing one path component.
    for (char &c : leaf)
        if (c == '/' || c == '\\')
            c = '_';
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::create_directories(dir);
    return dir;
}

/** A file path inside uniqueTestDir(). */
inline std::string
testPath(const std::string &leaf)
{
    return (uniqueTestDir() / leaf).string();
}

/** The bytes of the file at @p path (empty when it cannot be read). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace pgcn_test

#endif // PGCN_TESTS_TEST_PATHS_HPP
