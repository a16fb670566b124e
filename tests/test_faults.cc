/**
 * @file
 * Fault-model tests: rates, Table 7.4 page fractions, sampling, and
 * the fleet curves the campaign driver folds from those samples.
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "faults/fault_model.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

TEST(FaultRates, FieldStudyTotalsAreInThePaperRange)
{
    FaultRates r = FaultRates::fieldStudy();
    EXPECT_GT(r.totalFit(), 30.0);
    EXPECT_LT(r.totalFit(), 120.0);
    // A 36-device DIMM's any-fault incidence per year should be of the
    // order the paper quotes (2.95% [2] to 8% [1]); we land near the
    // bottom of that range.
    double per_dimm_year = fitToPerYear(r.totalFit()) * 36.0;
    EXPECT_GT(per_dimm_year, 0.01);
    EXPECT_LT(per_dimm_year, 0.08);
}

TEST(FaultRates, ScalingIsUniform)
{
    FaultRates r = FaultRates::fieldStudy();
    FaultRates r4 = r.scaled(4.0);
    for (FaultType t : allFaultTypes())
        EXPECT_DOUBLE_EQ(r4[t], 4.0 * r[t]);
    EXPECT_DOUBLE_EQ(r4.totalFit(), 4.0 * r.totalFit());
}

TEST(DomainGeometry, Table74UpgradeFractions)
{
    // The ARCC memory of Table 7.1: 2 ranks per channel-pair, 8 banks.
    DomainGeometry g;
    g.ranks = 2;
    g.banksPerDevice = 8;
    g.pages = 1048576;
    g.pagesPerRow = 2;
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Lane), 1.0);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Device), 1.0 / 2);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Bank), 1.0 / 16);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Column), 1.0 / 32);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Row), 2.0 / 1048576);
    EXPECT_DOUBLE_EQ(g.pageFraction(FaultType::Bit), 1.0 / 1048576);
}

TEST(DomainGeometryDeathTest, UnhandledFaultTypeIsFatal)
{
    // The switch in pageFraction is exhaustive over FaultType; a value
    // outside the enum (a future type the switch forgot) must die
    // loudly instead of silently contributing 0 to every reliability
    // number.
    DomainGeometry g;
    EXPECT_ARCC_ERROR(g.pageFraction(static_cast<FaultType>(99)),
                      "unhandled fault type 99");
}

TEST(FaultSampler, SortEventsIsStableOnTimestampTies)
{
    // Forced ties: interleave three timestamps across fault types in
    // type-major insertion order, as sampleLifetime produces them.  A
    // stable sort must keep that insertion order within each tie
    // group; std::sort was free to permute it differently per
    // standard library, which broke cross-toolchain golden pinning.
    std::vector<FaultEvent> events;
    int device = 0;
    for (FaultType t : allFaultTypes()) {
        for (double time : {2.0, 1.0, 2.0}) {
            FaultEvent e;
            e.timeHours = time;
            e.type = t;
            e.device = device++; // Unique tag per insertion.
            events.push_back(e);
        }
    }
    FaultSampler::sortEvents(events);

    ASSERT_EQ(events.size(), 21u);
    // First seven: the time==1.0 events, one per type in enum order.
    for (int i = 0; i < 7; ++i) {
        EXPECT_DOUBLE_EQ(events[i].timeHours, 1.0);
        EXPECT_EQ(events[i].type, allFaultTypes()[i]) << i;
        EXPECT_EQ(events[i].device, i * 3 + 1) << i;
    }
    // Remaining fourteen: the time==2.0 ties in insertion order --
    // both events of type 0 before both events of type 1, and within
    // a type the earlier insertion first.
    for (int i = 0; i < 14; ++i) {
        const FaultEvent &e = events[7 + i];
        EXPECT_DOUBLE_EQ(e.timeHours, 2.0);
        EXPECT_EQ(e.type, allFaultTypes()[i / 2]) << i;
        EXPECT_EQ(e.device, (i / 2) * 3 + (i % 2 == 0 ? 0 : 2)) << i;
    }
}

TEST(FaultSampler, EventCountMatchesRates)
{
    DomainGeometry g;
    FaultRates r = FaultRates::fieldStudy();
    FaultSampler sampler(g, r);
    Rng rng(5);
    const double hours = 7 * kHoursPerYear;
    double total = 0.0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        Rng tr = rng.fork();
        total += static_cast<double>(
            sampler.sampleLifetime(hours, tr).size());
    }
    double expected =
        fitToPerHour(r.totalFit()) * g.totalDevices() * hours;
    EXPECT_NEAR(total / trials, expected, expected * 0.15);
}

TEST(FaultSampler, EventsAreSortedAndInRange)
{
    DomainGeometry g;
    FaultSampler sampler(g, FaultRates::fieldStudy().scaled(2000.0));
    Rng rng(6);
    const double hours = kHoursPerYear;
    auto events = sampler.sampleLifetime(hours, rng);
    ASSERT_GT(events.size(), 20u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_GE(events[i].timeHours, 0.0);
        EXPECT_LE(events[i].timeHours, hours);
        EXPECT_LT(events[i].rank, g.ranks);
        EXPECT_LT(events[i].bank, g.banksPerDevice);
        EXPECT_LT(events[i].device, g.devicesPerRank);
        if (i > 0) {
            EXPECT_GE(events[i].timeHours, events[i - 1].timeHours);
        }
    }
}

// --- lifetime Monte Carlo: fleet curves (Figures 3.1, 7.4-7.6) ------

/** `channels` channels over 7 years at `boost`x field-study rates. */
CampaignSpec
fleet(std::uint64_t channels, double boost = 1.0)
{
    CampaignSpec spec;
    spec.rateBoost = boost;
    spec.years = 7.0;
    spec.channels = channels;
    spec.seed = 2013;
    return spec;
}

TEST(LifetimeMc, AffectedFractionIsMonotoneAndMatchesAnalytic)
{
    const CampaignSpec spec = fleet(3000);
    AffectedCurve curve = CampaignDriver(spec).affectedCurve(4);
    ASSERT_EQ(curve.timeYears.size(), curve.avgFraction.size());
    for (std::size_t i = 1; i < curve.avgFraction.size(); ++i)
        EXPECT_GE(curve.avgFraction[i], curve.avgFraction[i - 1]);
    double mc7 = curve.avgFraction.back();
    double an7 = analyticAffectedFraction(spec.geom, spec.rates, 7.0);
    EXPECT_NEAR(mc7, an7, an7 * 0.25 + 1e-4);
    // "Just a few percent during most of the lifetime" (Chapter 3).
    EXPECT_LT(mc7, 0.05);
    EXPECT_GT(mc7, 0.001);
}

TEST(LifetimeMc, FourXRatesRoughlyQuadrupleTheFraction)
{
    double f1 =
        CampaignDriver(fleet(3000)).affectedCurve(2).avgFraction.back();
    double f4 = CampaignDriver(fleet(3000, 4.0))
                    .affectedCurve(2)
                    .avgFraction.back();
    EXPECT_GT(f4, 2.5 * f1);
    EXPECT_LT(f4, 4.5 * f1);
}

TEST(LifetimeMc, OverheadCurveGrowsAndRespectsCap)
{
    // Extreme rates so the cap actually binds.
    const CampaignDriver driver(fleet(2000, 3000.0));
    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] = 0.5;
    auto by_year = driver.overheadByYear(overhead, 1.0);
    ASSERT_EQ(by_year.size(), 7u);
    for (std::size_t y = 1; y < by_year.size(); ++y)
        EXPECT_GE(by_year[y], by_year[y - 1] - 1e-12);
    for (double v : by_year)
        EXPECT_LE(v, 1.0 + 1e-12);
    EXPECT_GT(by_year.back(), 0.5);
}

TEST(LifetimeMc, ZeroOverheadFaultsCostNothing)
{
    PerTypeOverhead overhead{};
    auto by_year =
        CampaignDriver(fleet(500)).overheadByYear(overhead, 1.0);
    for (double v : by_year)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LifetimeMc, DeterministicForAGivenSeed)
{
    const CampaignDriver a(fleet(500)), b(fleet(500));
    EXPECT_EQ(a.affectedCurve(2).avgFraction,
              b.affectedCurve(2).avgFraction);
}

} // namespace
} // namespace arcc
