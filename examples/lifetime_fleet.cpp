/**
 * @file
 * Fleet-scale reliability planning with the ARCC library.
 *
 * A capacity planner's view: given a fleet of chipkill-protected
 * servers and a target lifespan, what fraction of memory will be
 * running upgraded, what does that cost in power, and what silent
 * data corruption exposure does the ARCC relaxation add?  Exercises
 * the campaign driver's fleet curve, the analytic cross-check, and
 * the SDC models on a user-chosen configuration.
 *
 * Usage:  lifetime_fleet [years] [rate_factor] [channels]
 */

#include <cstdio>
#include <cstdlib>

#include "campaign/campaign.hh"
#include "common/parse_num.hh"
#include "common/table.hh"
#include "reliability/sdc_model.hh"

using namespace arcc;

int
main(int argc, char **argv)
{
    double years = argc > 1 ? parseDouble("years", argv[1]) : 7.0;
    double factor =
        argc > 2 ? parseDouble("rate_factor", argv[2]) : 1.0;
    int channels = argc > 3 ? parseInt("channels", argv[3]) : 10000;
    if (years <= 0 || factor <= 0 || channels <= 0) {
        std::fprintf(stderr,
                     "usage: %s [years>0] [rate_factor>0] [channels>0]\n",
                     argv[0]);
        return 1;
    }

    std::printf("Fleet study: %d channels (72 DDR2 devices each), "
                "%.1f years, %.1fx field fault rates\n\n",
                channels, years, factor);

    CampaignSpec spec;
    spec.rateBoost = factor;
    spec.years = years;
    spec.channels = static_cast<std::uint64_t>(channels);
    spec.seed = 2013;
    const FaultRates rates = spec.rates.scaled(factor);

    AffectedCurve curve = CampaignDriver(spec).affectedCurve(4);
    TextTable t;
    t.header({"Year", "Pages upgraded (fleet avg)",
              "Analytic check"});
    for (std::size_t i = 0; i < curve.timeYears.size(); ++i) {
        if (curve.timeYears[i] !=
            static_cast<int>(curve.timeYears[i]))
            continue;
        t.row({TextTable::num(curve.timeYears[i], 0),
               TextTable::pct(curve.avgFraction[i], 3),
               TextTable::pct(analyticAffectedFraction(
                                  spec.geom, rates, curve.timeYears[i]),
                              3)});
    }
    t.print();

    // The power meaning of that fraction: upgraded accesses touch 36
    // devices instead of 18, so the fleet-average power overhead is
    // bounded by the upgraded fraction (worst case, Figure 7.4).
    double end_frac = curve.avgFraction.back();
    std::printf("\nWorst-case power overhead at end of life: %.2f%% "
                "(vs the ~36%% fault-free saving)\n",
                end_frac * 100.0);

    // SDC exposure of the ARCC relaxation.
    SdcModelConfig base = SdcModelConfig::sccdcdMachine();
    base.rates = rates;
    SdcModelConfig ar = SdcModelConfig::arccMachine();
    ar.rates = rates;
    double ded = SdcModel(base).sccdcdSdcPer1000MachineYears(years);
    double arcc_ded = SdcModel(ar).arccSdcPer1000MachineYears(years);
    std::printf("\nSDC exposure per 1000 machine-years: "
                "commercial DED %.2e, ARCC DED %.2e\n",
                ded, arcc_ded);
    std::printf("Fleet-wide over the whole study: %.4f expected SDC "
                "events in %d machines x %.0f years\n",
                arcc_ded / 1000.0 * channels * years, channels, years);
    std::printf("\nConclusion: at %.1fx rates the fleet runs >%.0f%% "
                "of its life at relaxed power and the added silent-"
                "error exposure stays negligible.\n",
                factor, (1.0 - end_frac) * 100.0);
    return 0;
}
