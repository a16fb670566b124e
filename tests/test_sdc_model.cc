/**
 * @file
 * Reliability-model tests (Chapter 6 / Figure 6.1 machinery).
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "reliability/sdc_model.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

TEST(SdcModel, OverlapProbabilitiesAreProbabilities)
{
    SdcModel m(SdcModelConfig::arccMachine());
    for (FaultType a : allFaultTypes()) {
        for (FaultType b : allFaultTypes()) {
            double p = m.pairOverlap(a, b);
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
            EXPECT_DOUBLE_EQ(p, m.pairOverlap(b, a)) << "symmetry";
        }
    }
}

TEST(SdcModel, LaneOverlapsEverything)
{
    SdcModel m(SdcModelConfig::arccMachine());
    for (FaultType t : allFaultTypes())
        EXPECT_DOUBLE_EQ(m.pairOverlap(FaultType::Lane, t), 1.0);
}

TEST(SdcModel, NarrowerFootprintsOverlapLess)
{
    SdcModel m(SdcModelConfig::arccMachine());
    double dev_dev = m.pairOverlap(FaultType::Device, FaultType::Device);
    double bank_bank = m.pairOverlap(FaultType::Bank, FaultType::Bank);
    double col_col =
        m.pairOverlap(FaultType::Column, FaultType::Column);
    double bit_bit = m.pairOverlap(FaultType::Bit, FaultType::Bit);
    EXPECT_GT(dev_dev, bank_bank);
    EXPECT_GT(bank_bank, col_col);
    EXPECT_GT(col_col, bit_bit);
}

TEST(SdcModel, TripleOverlapNeverExceedsPairOverlap)
{
    SdcModel m(SdcModelConfig::sccdcdMachine());
    for (FaultType a : allFaultTypes())
        for (FaultType b : allFaultTypes())
            EXPECT_LE(m.tripleOverlap(a, b, FaultType::Device),
                      m.pairOverlap(a, b) + 1e-15);
}

TEST(SdcModel, ArccSdcIsTinyButNonZero)
{
    SdcModel m(SdcModelConfig::arccMachine());
    double sdc = m.arccSdcPer1000MachineYears(7.0);
    EXPECT_GT(sdc, 0.0);
    // Chapter 6: the degradation is "insignificant"; the absolute SDC
    // count stays far below one event per 1000 machine-years.
    EXPECT_LT(sdc, 1.0);
}

TEST(SdcModel, SccdcdSdcIsOrdersOfMagnitudeBelowArccDed)
{
    // Simultaneous DED requires three overlapping faults; the reduced
    // DED of ARCC only two within a scrub window.  The baseline's SDC
    // must be far smaller -- and both far below significance, which is
    // the actual claim of Figure 6.1.
    SdcModel arcc(SdcModelConfig::arccMachine());
    SdcModel base(SdcModelConfig::sccdcdMachine());
    double a = arcc.arccSdcPer1000MachineYears(7.0);
    double s = base.sccdcdSdcPer1000MachineYears(7.0);
    EXPECT_LT(s, a);
    EXPECT_LT(s, 1e-3);
}

TEST(SdcModel, SdcScalesLinearlyWithScrubPeriod)
{
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    SdcModel m4(cfg);
    cfg.scrubHours = 8.0;
    SdcModel m8(cfg);
    EXPECT_NEAR(m8.arccSdcEvents(7.0), 2.0 * m4.arccSdcEvents(7.0),
                1e-12);
}

TEST(SdcModel, SdcScalesQuadraticallyWithFaultRate)
{
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    SdcModel m1(cfg);
    cfg.rates = cfg.rates.scaled(4.0);
    SdcModel m4(cfg);
    EXPECT_NEAR(m4.arccSdcEvents(7.0) / m1.arccSdcEvents(7.0), 16.0,
                1e-6);
}

TEST(SdcModel, SccdcdSdcScalesCubicallyWithFaultRate)
{
    SdcModelConfig cfg = SdcModelConfig::sccdcdMachine();
    SdcModel m1(cfg);
    cfg.rates = cfg.rates.scaled(2.0);
    SdcModel m2(cfg);
    EXPECT_NEAR(m2.sccdcdSdcEvents(5.0) / m1.sccdcdSdcEvents(5.0), 8.0,
                1e-6);
}

TEST(SdcModel, DueModelIsSchemeIndependentClaim)
{
    // Section 6.1: ARCC does not degrade the DUE rate.  In the model
    // the DUE structure (overlapping pairs over the lifetime) differs
    // between groupings only through the codeword-group geometry; with
    // the same geometry it is identical by construction.
    SdcModel a(SdcModelConfig::arccMachine());
    double due = a.dueEvents(7.0);
    EXPECT_GT(due, 0.0);
    // DUE events dwarf SDC events (no scrub-window coincidence
    // needed).
    EXPECT_GT(due, 100.0 * a.arccSdcEvents(7.0));
}

TEST(SdcModel, MonteCarloValidatesTheAnalyticModel)
{
    // Boost rates so overlaps actually occur, then compare the MC
    // count with the analytic model evaluated at the boosted rates.
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    const double boost = 2000.0;
    const CampaignAggregate agg =
        CampaignDriver(sdcValidationSpec(cfg, 7.0, boost, 400, 99))
            .run()
            .aggregate;
    double mc = static_cast<double>(agg.sdcCandidates) /
                static_cast<double>(agg.trials);

    SdcModelConfig boosted = cfg;
    boosted.rates = cfg.rates.scaled(boost);
    SdcModel bmodel(boosted);
    double analytic = bmodel.arccSdcEvents(7.0);

    EXPECT_GT(mc, 0.0);
    EXPECT_NEAR(mc, analytic, analytic * 0.4);
}

TEST(SdcModel, RejectsInconsistentGeometry)
{
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    cfg.groups = 3;
    EXPECT_ARCC_ERROR(SdcModel m(cfg), "groups");
}

TEST(MeasureMiscorrection, DoubleErrorAliasRateNearNOverQ)
{
    // RS(18,16) with maxCorrect=1 under 2 random errors miscorrects at
    // roughly n/q ~ 7% (this feeds the aliasFactor refinement).
    double rate = measureMiscorrectionRate(18, 16, 1, 2, 4000, 7);
    EXPECT_GT(rate, 0.02);
    EXPECT_LT(rate, 0.15);
}

TEST(MeasureMiscorrection, SccdcdNeverAliasesOnDoubleErrors)
{
    double rate = measureMiscorrectionRate(36, 32, 1, 2, 2000, 8);
    EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST(MeasureMiscorrection, WithinCapabilityNeverMiscorrects)
{
    EXPECT_DOUBLE_EQ(measureMiscorrectionRate(36, 32, 2, 2, 1000, 9),
                     0.0);
    EXPECT_DOUBLE_EQ(measureMiscorrectionRate(18, 16, 1, 1, 1000, 10),
                     0.0);
}

} // namespace
} // namespace arcc
