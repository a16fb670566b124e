/**
 * @file
 * Figure 7.4: average increase in ARCC power consumption as a function
 * of time, compared to fault-free memory, for 1x / 2x / 4x fault
 * rates; measured overheads and the worst-case estimate.
 *
 * Methodology (Section 7.1): the per-fault-type overheads are measured
 * with the Figure 7.2 experiments, then a 10000-channel Monte Carlo
 * injects fault arrivals over 7 years and accumulates each channel's
 * overhead from the arrival time onward; year X reports the fleet
 * average of the time-average through year X.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    printBanner("Figure 7.4: Power Overhead of Error Correction");

    std::printf("Measuring per-fault-type power overheads "
                "(Figure 7.2 methodology)...\n");
    bench::ScenarioOverheads ov = bench::measureScenarioOverheads();
    std::printf("  lane %.1f%%  device %.1f%%  subbank %.2f%%  "
                "column %.2f%%\n\n",
                ov.power[0] * 100, ov.power[1] * 100,
                ov.power[2] * 100, ov.power[3] * 100);

    PerTypeOverhead measured = bench::toPerTypeOverhead(ov.power);
    DomainGeometry geom = bench::defaultGeometry();
    PerTypeOverhead worst = bench::worstCaseOverhead(geom, 1.0);

    TextTable t;
    t.header({"Year", "1x", "2x", "4x", "1x worst est.",
              "4x worst est."});

    std::vector<std::vector<double>> meas, wc;
    for (double factor : {1.0, 2.0, 4.0}) {
        const CampaignDriver fleet(bench::fleetSpec(geom, factor));
        meas.push_back(
            fleet.overheadByYear(measured, ov.power[0]));
        wc.push_back(fleet.overheadByYear(worst, 1.0));

        std::vector<std::pair<std::string, std::string>> fields = {
            {"factor", bench::jsonNum(factor)}};
        for (std::size_t y = 0; y < meas.back().size(); ++y)
            fields.emplace_back("year" + std::to_string(y + 1),
                                bench::jsonNum(meas.back()[y]));
        for (std::size_t y = 0; y < wc.back().size(); ++y)
            fields.emplace_back("worst_year" + std::to_string(y + 1),
                                bench::jsonNum(wc.back()[y]));
        bench::jsonRow("fig7_4", fields);
    }
    for (int y = 0; y < 7; ++y) {
        t.row({std::to_string(y + 1), TextTable::pct(meas[0][y], 3),
               TextTable::pct(meas[1][y], 3),
               TextTable::pct(meas[2][y], 3),
               TextTable::pct(wc[0][y], 3),
               TextTable::pct(wc[2][y], 3)});
    }
    t.print();

    double fault_free_saving = 0.367; // Figure 7.1 headline.
    std::printf("\nShape checks:\n");
    std::printf("  overhead grows with time and rate factor, stays "
                "small: 4x year-7 measured %.2f%% (< 4%%): %s\n",
                meas[2][6] * 100, meas[2][6] < 0.04 ? "yes" : "NO");
    std::printf("  paper: 'power benefits from ARCC even at the end "
                "of 7 years for 4X the fault rate is no less than "
                "30%%': %.1f%% - %.2f%% = %.1f%% >= 30%%: %s\n",
                fault_free_saving * 100, wc[2][6] * 100,
                (fault_free_saving - wc[2][6]) * 100,
                fault_free_saving - wc[2][6] >= 0.30 ? "yes" : "NO");
    return 0;
}
