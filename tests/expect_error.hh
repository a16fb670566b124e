/**
 * @file
 * EXPECT_ARCC_ERROR(statement, regex): `statement` must throw
 * arcc::Error, and the error's message must contain a match for the
 * POSIX extended regex -- the dialect the death tests it replaces
 * matched stderr with.  fatal() throws instead of exiting, so the
 * check runs in-process rather than in a forked child.
 *
 * openFdCount() lets a test show that such a throw leaks no file
 * descriptor.  LeakSanitizer cannot: glibc keeps every open FILE on
 * its own list, so an unclosed one is still reachable.
 */

#ifndef ARCC_TESTS_EXPECT_ERROR_HH
#define ARCC_TESTS_EXPECT_ERROR_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <regex>
#include <string>

#include "common/logging.hh"

namespace arcc::test
{

template <typename Statement>
::testing::AssertionResult
throwsError(Statement &&statement, const char *pattern)
{
    try {
        statement();
    } catch (const Error &e) {
        const std::regex re(pattern, std::regex::extended);
        if (std::regex_search(e.what(), re))
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "arcc::Error \"" << e.what()
               << "\" does not match /" << pattern << "/";
    }
    return ::testing::AssertionFailure()
           << "no arcc::Error thrown (wanted /" << pattern << "/)";
}

/** @return open descriptors of this process, or -1 without /proc. */
inline long
openFdCount()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/fd", ec);
    if (ec)
        return -1;
    return std::distance(it, std::filesystem::directory_iterator{});
}

} // namespace arcc::test

#define EXPECT_ARCC_ERROR(statement, regex)                               \
    EXPECT_TRUE(::arcc::test::throwsError([&] { statement; }, regex))

#endif // ARCC_TESTS_EXPECT_ERROR_HH
