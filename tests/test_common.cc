/**
 * @file
 * Tests for the common substrate: RNG distributions, statistics,
 * table rendering, unit conversions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace arcc
{
namespace
{

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        auto x = a.next();
        EXPECT_EQ(x, b.next());
        if (x != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(1);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(2);
    int counts[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(rng.uniform() * 10)];
    for (int b = 0; b < 10; ++b)
        EXPECT_NEAR(static_cast<double>(counts[b]) / n, 0.1, 0.01)
            << "bin " << b;
}

TEST(Rng, PoissonMeanAndSmallMeanBehaviour)
{
    Rng rng(4);
    RunningStat small, large;
    for (int i = 0; i < 50000; ++i) {
        small.add(static_cast<double>(rng.poisson(0.02)));
        large.add(static_cast<double>(rng.poisson(100.0)));
    }
    EXPECT_NEAR(small.mean(), 0.02, 0.005);
    EXPECT_NEAR(large.mean(), 100.0, 0.5);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, GeometricMeanTracksParameter)
{
    Rng rng(5);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.add(static_cast<double>(rng.geometric(40.0)));
    EXPECT_NEAR(s.mean(), 40.0, 2.0);
    EXPECT_EQ(rng.geometric(0.5), 1u);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(6);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.37);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.37, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependentish)
{
    Rng parent(7);
    Rng a = parent.fork();
    Rng b = parent.fork();
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
}

TEST(RunningStat, EmptyIsSane)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TextTable, FormatsNumbers)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
    EXPECT_EQ(TextTable::sci(12345.0, 2), "1.23e+04");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"a", "long-header"});
    t.row({"xxxx", "1"});
    // Render into a pipe-backed FILE to capture output.
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    t.print(tmp);
    std::rewind(tmp);
    char buf[256] = {0};
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
    std::fclose(tmp);
    std::string out(buf, n);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Units, FitConversions)
{
    // 1000 FIT = 1e-6 failures/hour = ~8.77e-3 per year.
    EXPECT_DOUBLE_EQ(fitToPerHour(1000.0), 1e-6);
    EXPECT_NEAR(fitToPerYear(1000.0), 8.766e-3, 1e-6);
    EXPECT_EQ(kLinesPerPage, 64u);
    EXPECT_EQ(kUpgradedLineBytes, 2 * kLineBytes);
}

} // namespace
} // namespace arcc
