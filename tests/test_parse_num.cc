/**
 * @file
 * Tests for the checked flag / environment parsers -- the fix for the
 * silent-zero input-parsing holes.
 *
 * Every ParseNumDeath case is a CLI regression: the exact flag text
 * that the old strtoull / atoi / atof parsing silently coerced to 0
 * (or wrapped to 2^64-1), checked to now raise arcc::Error naming the
 * flag and the offending text.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parse_num.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

// --- the happy paths ---------------------------------------------------

TEST(ParseNum, AcceptsWellFormedIntegers)
{
    EXPECT_EQ(parseU64("--channels", "16384"), 16384u);
    EXPECT_EQ(parseU64("--seed", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseI64("--worker-id", "-3"), -3);
    EXPECT_EQ(parseU32("--workers", "4"), 4u);
    EXPECT_EQ(parseInt("--group-devices", "18"), 18);
    EXPECT_EQ(parseInt("channels", "0"), 0);
}

TEST(ParseNum, AcceptsWellFormedDoubles)
{
    EXPECT_DOUBLE_EQ(parseDouble("--years", "5"), 5.0);
    EXPECT_DOUBLE_EQ(parseDouble("--boost", "100.5"), 100.5);
    EXPECT_DOUBLE_EQ(parseDouble("--fraction", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseDouble("rate_factor", "1e2"), 100.0);
    EXPECT_DOUBLE_EQ(parseDouble("--years", "-2.5"), -2.5);
}

// --- arcc_campaign's flags ---------------------------------------------

TEST(ParseNumDeath, CampaignChannelsGarbageIsFatal)
{
    // Old behaviour: strtoull("junk") == 0 => a 0-channel campaign.
    EXPECT_ARCC_ERROR(parseU64("--channels", "junk"),
                      "--channels.*unsigned integer.*junk");
}

TEST(ParseNumDeath, CampaignChannelsTrailingGarbageIsFatal)
{
    // Old behaviour: strtoull("16k") == 16.
    EXPECT_ARCC_ERROR(parseU64("--channels", "16k"),
                      "--channels.*unsigned integer.*16k");
}

TEST(ParseNumDeath, CampaignSeedNegativeWrapsNoMore)
{
    // Old behaviour: strtoull("-1") wrapped to 2^64-1.
    EXPECT_ARCC_ERROR(parseU64("--seed", "-1"), "--seed.*negative value");
}

TEST(ParseNumDeath, CampaignEpochTrialsEmptyIsFatal)
{
    EXPECT_ARCC_ERROR(parseU64("--epoch-trials", ""),
                      "--epoch-trials.*empty string");
}

TEST(ParseNumDeath, CampaignGroupDevicesGarbageIsFatal)
{
    // Old behaviour: atoi("all") == 0 => division by zero downstream.
    EXPECT_ARCC_ERROR(parseInt("--group-devices", "all"),
                      "--group-devices.*integer.*all");
}

TEST(ParseNumDeath, CampaignWorkersOutOfRangeIsFatal)
{
    EXPECT_ARCC_ERROR(parseU32("--workers", "4294967296"),
                      "--workers.*out of range");
}

TEST(ParseNumDeath, CampaignYearsGarbageIsFatal)
{
    // Old behaviour: atof("five") == 0.0 => usage trap at best.
    EXPECT_ARCC_ERROR(parseDouble("--years", "five"), "--years.*number.*five");
}

TEST(ParseNumDeath, CampaignBoostPartialParseIsFatal)
{
    // Old behaviour: atof("100x") == 100.0, the typo vanished.
    EXPECT_ARCC_ERROR(parseDouble("--boost", "100x"), "--boost.*number.*100x");
}

// --- arcc_sim's flags --------------------------------------------------

TEST(ParseNumDeath, SimInstrsScientificNotationIsFatal)
{
    // Old behaviour: strtoull("2e6") == 2 -- a two-instruction run.
    EXPECT_ARCC_ERROR(parseU64("--instrs", "2e6"),
                      "--instrs.*unsigned integer.*2e6");
}

TEST(ParseNumDeath, SimFractionGarbageIsFatal)
{
    EXPECT_ARCC_ERROR(parseDouble("--fraction", "half"),
                      "--fraction.*number.*half");
}

// --- lifetime_fleet's positionals --------------------------------------

TEST(ParseNumDeath, FleetYearsGarbageIsFatal)
{
    EXPECT_ARCC_ERROR(parseDouble("years", "7yrs"), "years.*number.*7yrs");
}

TEST(ParseNumDeath, FleetChannelsGarbageIsFatal)
{
    EXPECT_ARCC_ERROR(parseInt("channels", "10_000"),
                      "channels.*integer.*10_000");
}

// --- strictness details -------------------------------------------------

TEST(ParseNumDeath, LeadingWhitespaceIsFatal)
{
    EXPECT_ARCC_ERROR(parseU64("--channels", " 5"), "--channels");
    EXPECT_ARCC_ERROR(parseDouble("--years", " 5"), "--years");
}

TEST(ParseNumDeath, PlusPrefixIsFatal)
{
    EXPECT_ARCC_ERROR(parseU64("--channels", "+5"), "--channels");
    EXPECT_ARCC_ERROR(parseDouble("--years", "+5"), "--years");
}

TEST(ParseNumDeath, DoubleOverflowIsFatal)
{
    EXPECT_ARCC_ERROR(parseDouble("--boost", "1e999"),
                      "--boost.*out of range");
}

TEST(ParseNumDeath, IntRangeIsChecked)
{
    EXPECT_ARCC_ERROR(parseInt("--group-devices", "2147483648"),
                      "--group-devices.*out of range");
}

// --- environment variables ---------------------------------------------

TEST(ParseNumEnv, UnsetAndEmptyUseTheFallback)
{
    ::unsetenv("ARCC_TEST_PARSE_ENV");
    EXPECT_EQ(envU64("ARCC_TEST_PARSE_ENV", 123), 123u);
    ::setenv("ARCC_TEST_PARSE_ENV", "", 1);
    EXPECT_EQ(envU64("ARCC_TEST_PARSE_ENV", 123), 123u);
    ::unsetenv("ARCC_TEST_PARSE_ENV");
}

TEST(ParseNumEnv, SetValueWins)
{
    ::setenv("ARCC_TEST_PARSE_ENV", "777", 1);
    EXPECT_EQ(envU64("ARCC_TEST_PARSE_ENV", 123), 777u);
    ::unsetenv("ARCC_TEST_PARSE_ENV");
}

TEST(ParseNumEnvDeath, BenchInstrsGarbageIsFatal)
{
    // Old behaviour: ARCC_BENCH_INSTRS=1m ran a 1-instruction bench
    // whose rows looked plausible.
    ::setenv("ARCC_BENCH_INSTRS", "1m", 1);
    EXPECT_ARCC_ERROR(envU64("ARCC_BENCH_INSTRS", 1'000'000),
                      "ARCC_BENCH_INSTRS.*unsigned integer.*1m");
    ::unsetenv("ARCC_BENCH_INSTRS");
}

} // namespace
} // namespace arcc
