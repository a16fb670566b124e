/**
 * @file
 * The paper runner: one function per figure or table, each printing
 * its human table, its shape checks and one jsonRow per table row.
 *
 *   bench_paper                  # every figure, in paper order
 *   bench_paper fig7_2 due       # only the named figures
 *
 * As in the paper's Section 7.1, the Figure 7 grid (12 mixes x
 * {baseline, ARCC fault-free, 4 fault scenarios}) is simulated once,
 * as one simulateMixBatch, and Figures 7.1-7.5 and the motivation
 * read from it.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "arcc/scrubber.hh"
#include "arcc/vecc.hh"
#include "bench_common.hh"
#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "cpu/system_sim.hh"
#include "dram/dram_params.hh"
#include "faults/fault_model.hh"
#include "reliability/sdc_model.hh"

using namespace arcc;

namespace
{

using Fields = std::vector<std::pair<std::string, std::string>>;
/** One lifetime curve (a value per year) per kRateFactors entry. */
using Curves = std::vector<std::vector<double>>;

/** A string as a jsonRow value. */
std::string
jsonStr(const std::string &s)
{
    return "\"" + s + "\"";
}

/** Standard simulation config for a memory configuration. */
SystemConfig
systemConfig(const MemoryConfig &mem)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.instrsPerCore = bench::instrBudget();
    cfg.seed = 20130223; // HPCA 2013.
    return cfg;
}

/** The Table 7.4 fault scenarios in paper order. */
constexpr std::array<PageUpgradeOracle::Scenario, 4> kFaultScenarios = {
    PageUpgradeOracle::Scenario::Lane,
    PageUpgradeOracle::Scenario::Device,
    PageUpgradeOracle::Scenario::Bank,
    PageUpgradeOracle::Scenario::Column,
};

/** The fault-rate factors of every lifetime figure. */
constexpr std::array<double, 3> kRateFactors = {1.0, 2.0, 4.0};

/**
 * The paper's fleet for the lifetime curves (Figures 3.1 and
 * 7.4-7.6): 10000 channels of the default DomainGeometry (72 devices,
 * 4 GB) over 7 years at `factor`x the field-study rates, seed 2013.
 */
CampaignSpec
fleetSpec(double factor)
{
    CampaignSpec spec;
    spec.rateBoost = factor;
    spec.years = 7.0;
    spec.channels = 10000;
    spec.seed = 2013;
    return spec;
}

/**
 * Map measured scenario overheads onto the fault taxonomy for the
 * fleet overhead curves (Figures 7.4 / 7.5).  Row / word / bit faults
 * upgrade a negligible number of pages, so their overhead is ~0.
 */
PerTypeOverhead
toPerTypeOverhead(const std::array<double, 4> &scenario)
{
    PerTypeOverhead o{};
    o[static_cast<int>(FaultType::Lane)] = scenario[0];
    o[static_cast<int>(FaultType::Device)] = scenario[1];
    o[static_cast<int>(FaultType::Bank)] = scenario[2];
    o[static_cast<int>(FaultType::Column)] = scenario[3];
    return o;
}

/** Worst-case-estimate overhead: the upgraded page fraction itself. */
PerTypeOverhead
worstCaseOverhead(double cost_factor)
{
    PerTypeOverhead o{};
    for (FaultType t : allFaultTypes())
        o[static_cast<int>(t)] =
            cost_factor * DomainGeometry{}.pageFraction(t);
    return o;
}

/** One Table 7.3 mix's row of the Figure 7 grid. */
struct MixRuns
{
    const WorkloadMix *mix;
    SimResult base;                 ///< baseline, fault-free
    SimResult clean;                ///< ARCC, fault-free
    std::array<SimResult, 4> fault; ///< ARCC, one kFaultScenarios fault
};

/**
 * The Figure 7 grid, simulated once as one simulateMixBatch (bit-
 * identical to a simulateMix loop at any thread count).
 */
const std::vector<MixRuns> &
figure7Grid()
{
    static const std::vector<MixRuns> grid = [] {
        const SystemConfig base = systemConfig(baselineConfig());
        const SystemConfig arcc = systemConfig(arccConfig());
        std::vector<MixJob> jobs;
        for (const WorkloadMix &mix : table73Mixes()) {
            jobs.push_back({mix, base, {}});
            jobs.push_back({mix, arcc, {}});
            for (auto s : kFaultScenarios)
                jobs.push_back(
                    {mix, arcc, PageUpgradeOracle::forScenario(s, arcc.mem)});
        }
        const std::vector<SimResult> r = simulateMixBatch(jobs);
        std::vector<MixRuns> out;
        for (std::size_t i = 0; i < r.size(); i += 6)
            out.push_back({&table73Mixes()[i / 6], r[i], r[i + 1],
                           {r[i + 2], r[i + 3], r[i + 4], r[i + 5]}});
        return out;
    }();
    return grid;
}

/** Fault-free ARCC power saving over the baseline (Figure 7.1). */
double
powerSaving(const MixRuns &g)
{
    return 1.0 - g.clean.avgPowerMw / g.base.avgPowerMw;
}

/** Figure 7.1's power saving across the 12 mixes. */
RunningStat
meanPowerSaving()
{
    RunningStat saving;
    for (const MixRuns &g : figure7Grid())
        saving.add(powerSaving(g));
    return saving;
}

/** Mix-averaged overhead of each Table 7.4 scenario vs fault-free. */
struct ScenarioOverheads
{
    std::array<double, 4> power{}; ///< power increase (Figure 7.2)
    std::array<double, 4> perf{};  ///< IPC decrease (Figure 7.3)
};

/** Methodology step 1 of Section 7.1, reduced in mix order. */
ScenarioOverheads
measureScenarioOverheads()
{
    const std::vector<MixRuns> &grid = figure7Grid();
    ScenarioOverheads out;
    for (const MixRuns &g : grid) {
        for (std::size_t s = 0; s < 4; ++s) {
            out.power[s] += g.fault[s].avgPowerMw / g.clean.avgPowerMw - 1.0;
            out.perf[s] += 1.0 - g.fault[s].ipcSum / g.clean.ipcSum;
        }
    }
    const double mixes = static_cast<double>(grid.size());
    for (std::size_t s = 0; s < 4; ++s) {
        out.power[s] /= mixes;
        out.perf[s] /= mixes;
    }
    return out;
}

/** One fleet overhead curve per rate factor. */
Curves
overheadCurves(const PerTypeOverhead &overhead, double cap)
{
    Curves out;
    for (double factor : kRateFactors)
        out.push_back(CampaignDriver(fleetSpec(factor))
                          .overheadByYear(overhead, cap));
    return out;
}

/**
 * Figure 7.4's worst-case power curves (cost 1.0, cap 1.0).  The
 * ARCC+VECC lifetime table is the same computation.
 */
const Curves &
worstCasePowerCurves()
{
    static const Curves curves = overheadCurves(worstCaseOverhead(1.0), 1.0);
    return curves;
}

/**
 * One jsonRow per rate factor: `year<N>` from `curves` and, when
 * given, `worst_year<N>` from `worst`.
 */
void
curveRows(const char *bench, const Curves &curves,
          const Curves *worst = nullptr)
{
    for (std::size_t i = 0; i < kRateFactors.size(); ++i) {
        Fields fields = {{"factor", bench::jsonNum(kRateFactors[i])}};
        for (const Curves *c : {&curves, worst}) {
            for (std::size_t y = 0; c && y < (*c)[i].size(); ++y)
                fields.emplace_back(
                    std::string(c == worst ? "worst_year" : "year") +
                        std::to_string(y + 1),
                    bench::jsonNum((*c)[i][y]));
        }
        bench::jsonRow(bench, fields);
    }
}

/** Print a 7-year table with one percentage column per curve. */
void
printYearTable(std::vector<std::string> header,
               const std::vector<const std::vector<double> *> &curves)
{
    TextTable t;
    t.header(std::move(header));
    for (int y = 0; y < 7; ++y) {
        std::vector<std::string> row = {std::to_string(y + 1)};
        for (const std::vector<double> *c : curves)
            row.push_back(TextTable::pct((*c)[y], 3));
        t.row(row);
    }
    t.print();
}

/**
 * The body of Figures 7.4 / 7.5: the measured curves (per-type
 * overheads `measured`, capped at `cap`) beside the worst-case curves
 * `wc`, one jsonRow per rate factor, then the year table.
 */
Curves
measuredVsWorst(const char *bench, const PerTypeOverhead &measured,
                double cap, const Curves &wc)
{
    Curves meas = overheadCurves(measured, cap);
    curveRows(bench, meas, &wc);
    printYearTable({"Year", "1x", "2x", "4x", "1x worst est.",
                    "4x worst est."},
                   {&meas[0], &meas[1], &meas[2], &wc[0], &wc[2]});
    return meas;
}

/**
 * The per-mix table of Figures 7.2 / 7.3: `metric` of each fault
 * scenario normalised to the fault-free run, one jsonRow per mix
 * (fields `<field>_<scenario>`), then the average row and the
 * worst-case row `worst(upgraded fraction)`.
 */
std::array<RunningStat, 4>
faultTable(const char *bench, const char *field,
           double (*metric)(const SimResult &), double (*worst)(double))
{
    TextTable t;
    t.header({"Mix", "1 lane", "1 device", "1 subbank", "1 column"});
    std::array<RunningStat, 4> per_scenario;
    for (const MixRuns &g : figure7Grid()) {
        std::vector<std::string> row = {g.mix->name};
        Fields fields = {{"mix", jsonStr(g.mix->name)}};
        for (std::size_t s = 0; s < 4; ++s) {
            double norm = metric(g.fault[s]) / metric(g.clean);
            per_scenario[s].add(norm);
            row.push_back(TextTable::num(norm, 3));
            fields.emplace_back(std::string(field) + "_" + std::to_string(s),
                                bench::jsonNum(norm));
        }
        t.row(row);
        bench::jsonRow(bench, fields);
    }
    std::vector<std::string> avg = {"Average"};
    for (const RunningStat &st : per_scenario)
        avg.push_back(TextTable::num(st.mean(), 3));
    t.row(avg);
    std::vector<std::string> wc = {"worst case est."};
    for (auto s : kFaultScenarios) {
        auto oracle = PageUpgradeOracle::forScenario(s, arccConfig());
        wc.push_back(TextTable::num(worst(oracle.expectedFraction()), 3));
    }
    t.row(wc);
    t.print();
    return per_scenario;
}

/**
 * Figure 3.1: average fraction of 4KB pages in a memory channel that
 * has been affected by faults, vs operational lifespan, for 1x / 2x /
 * 4x the field-study fault rate.  10000-channel Monte Carlo plus the
 * analytic cross-check; one JSON row per curve point.
 */
void
fig3_1()
{
    printBanner("Figure 3.1: Faulty Memory vs Time");
    std::printf("Average fraction of 4KB pages affected by faults "
                "(worst-case corruption footprints),\n"
                "10000 channels of 2 ranks x 36 devices, "
                "7-year horizon.\n\n");

    const DomainGeometry geom;
    std::vector<AffectedCurve> curves;
    std::vector<double> analytic7;
    for (double f : kRateFactors) {
        const FaultRates rates = FaultRates::fieldStudy().scaled(f);
        curves.push_back(CampaignDriver(fleetSpec(f)).affectedCurve(4));
        const AffectedCurve &c = curves.back();
        for (std::size_t i = 0; i < c.timeYears.size(); ++i)
            bench::jsonRow(
                "fig3_1",
                {{"factor", bench::jsonNum(f)},
                 {"years", bench::jsonNum(c.timeYears[i])},
                 {"affected", bench::jsonNum(c.avgFraction[i])},
                 {"analytic",
                  bench::jsonNum(analyticAffectedFraction(
                      geom, rates, c.timeYears[i]))}});
        analytic7.push_back(analyticAffectedFraction(geom, rates, 7.0));
    }

    TextTable t;
    t.header({"Years", "1x rate", "2x rate", "4x rate"});
    for (std::size_t i = 0; i < curves[0].timeYears.size(); ++i) {
        if ((i + 1) % 2 != 0)
            continue; // print half-year steps.
        t.row({TextTable::num(curves[0].timeYears[i], 2),
               TextTable::pct(curves[0].avgFraction[i], 3),
               TextTable::pct(curves[1].avgFraction[i], 3),
               TextTable::pct(curves[2].avgFraction[i], 3)});
    }
    t.print();

    std::printf("\nAnalytic cross-check at 7 years: "
                "1x %.3f%%  2x %.3f%%  4x %.3f%%\n",
                analytic7[0] * 100, analytic7[1] * 100,
                analytic7[2] * 100);
    std::printf("\nPaper's shape: 'the fraction of pages with fault is "
                "just a few percent during most\nof the lifetime of "
                "the memory channel, even for a worst case failure "
                "rate that is 4X as high'.\nReproduced: %s\n",
                curves[2].avgFraction.back() < 0.06 ? "yes" : "NO");
}

/**
 * Figure 6.1: SDCs per 1000 machine-years, commercial SCCDCD vs the
 * reduced double error detection of ARCC, across lifespans and rate
 * factors: analytic models, a boosted-rate campaign validation and a
 * measured aliasing refinement.
 */
void
fig6_1()
{
    printBanner("Figure 6.1: Reliability Comparison (SDC rates)");
    std::printf("SDC events per 1000 machine-years; machine = one "
                "72-device channel pair; 4h scrub period.\n"
                "'DED' = commercial SCCDCD (detects 2 bad symbols "
                "always);\n"
                "'ARCC DED' = reduced detection (2nd overlapping fault "
                "inside one scrub window escapes).\n\n");

    TextTable t;
    t.header({"Lifespan", "Rate", "DED (SCCDCD)", "ARCC DED",
              "ARCC DED (alias-adjusted)"});
    double alias = measureMiscorrectionRate(18, 16, 1, 2, 20000, 613);

    for (double years : {5.0, 6.0, 7.0}) {
        for (double factor : kRateFactors) {
            SdcModelConfig base = SdcModelConfig::sccdcdMachine();
            base.rates = FaultRates::fieldStudy().scaled(factor);
            SdcModelConfig ar = SdcModelConfig::arccMachine();
            ar.rates = base.rates;
            double ded = SdcModel(base).sccdcdSdcPer1000MachineYears(years);
            double arcc_ded = SdcModel(ar).arccSdcPer1000MachineYears(years);
            bench::jsonRow("fig6_1",
                           {{"years", bench::jsonNum(years)},
                            {"factor", bench::jsonNum(factor)},
                            {"ded", bench::jsonNum(ded)},
                            {"arcc_ded", bench::jsonNum(arcc_ded)},
                            {"alias", bench::jsonNum(alias)}});
            t.row({TextTable::num(years, 0) + "y",
                   TextTable::num(factor, 0) + "x",
                   TextTable::sci(ded, 2), TextTable::sci(arcc_ded, 2),
                   TextTable::sci(arcc_ded * alias, 2)});
        }
    }
    t.print();

    std::printf("\nMeasured RS(18,16) double-error miscorrection "
                "(aliasing) probability: %.1f%%\n", alias * 100.0);

    // Boosted-rate Monte Carlo validation of the ARCC model.
    SdcModelConfig cfg = SdcModelConfig::arccMachine();
    const double boost = 2000.0;
    const CampaignSpec spec = sdcValidationSpec(cfg, 7.0, boost, 500, 601);
    const CampaignAggregate agg = CampaignDriver(spec).run().aggregate;
    double mc = static_cast<double>(agg.sdcCandidates) /
                static_cast<double>(agg.trials);
    SdcModelConfig boosted = cfg;
    boosted.rates = cfg.rates.scaled(boost);
    double analytic = SdcModel(boosted).arccSdcEvents(7.0);
    bench::jsonRow("fig6_1_mc",
                   {{"years", bench::jsonNum(spec.years)},
                    {"boost", bench::jsonNum(boost)},
                    {"trials", bench::jsonNum(agg.trials)},
                    {"events", bench::jsonNum(agg.sdcCandidates)},
                    {"faults", bench::jsonNum(agg.faultsSampled)},
                    {"events_per_trial", bench::jsonNum(mc)},
                    {"analytic", bench::jsonNum(analytic)}});
    std::printf("\nMonte Carlo validation at %gx boosted rates "
                "(events/machine over 7y):\n"
                "  simulated %.3f vs analytic %.3f  (ratio %.2f)\n",
                boost, mc, analytic, mc / analytic);

    std::printf("\nPaper's shape: 'the increase to the SDC rate of "
                "SCCDCD+ARCC over SCCDCD alone is\ninsignificant' -- "
                "both rates are tiny in absolute terms (well below one "
                "SDC per 1000\nmachine-years at every point).\n");
}

/**
 * Figure 7.1: fault-free DRAM power and performance of ARCC applied to
 * commercial chipkill correct, relative to the 36-device baseline,
 * for the 12 mixes of Table 7.3.  Paper: -36.7% power, +5.9%
 * performance on average.
 */
void
fig7_1()
{
    printBanner("Figure 7.1: Power and Performance Improvements");
    std::printf("ARCC (2ch x 2rk x 18dev x8) vs Baseline "
                "(2ch x 1rk x 36dev x4), no faults.\n"
                "Performance = sum of per-core IPCs (the paper's "
                "metric).  %llu instrs/core.\n\n",
                static_cast<unsigned long long>(bench::instrBudget()));

    TextTable t;
    t.header({"Mix", "Base mW", "ARCC mW", "Power reduction",
              "Base IPC", "ARCC IPC", "Perf improvement"});
    RunningStat perf_imp;
    for (const MixRuns &g : figure7Grid()) {
        const SimResult &rb = g.base;
        const SimResult &ra = g.clean;
        double imp = ra.ipcSum / rb.ipcSum - 1.0;
        perf_imp.add(imp);
        t.row({g.mix->name, TextTable::num(rb.avgPowerMw, 0),
               TextTable::num(ra.avgPowerMw, 0),
               TextTable::pct(powerSaving(g)),
               TextTable::num(rb.ipcSum, 2),
               TextTable::num(ra.ipcSum, 2), TextTable::pct(imp)});
        bench::jsonRow("fig7_1",
                       {{"mix", jsonStr(g.mix->name)},
                        {"base_mw", bench::jsonNum(rb.avgPowerMw)},
                        {"arcc_mw", bench::jsonNum(ra.avgPowerMw)},
                        {"base_ipc", bench::jsonNum(rb.ipcSum)},
                        {"arcc_ipc", bench::jsonNum(ra.ipcSum)}});
    }
    const RunningStat power_red = meanPowerSaving();
    t.row({"Average", "", "", TextTable::pct(power_red.mean()), "", "",
           TextTable::pct(perf_imp.mean())});
    t.print();
    bench::jsonRow("fig7_1_avg",
                   {{"power_reduction", bench::jsonNum(power_red.mean())},
                    {"perf_improvement", bench::jsonNum(perf_imp.mean())}});

    std::printf("\nPaper: power -36.7%% avg (uniform across mixes), "
                "performance +5.9%% avg (varies by mix).\n"
                "Measured: power %s avg, performance %s avg.\n",
                TextTable::pct(power_red.mean()).c_str(),
                TextTable::pct(perf_imp.mean()).c_str());
    std::printf("Shape check: power reduction uniform (stddev %s), "
                "every mix saves >25%%: %s\n",
                TextTable::pct(power_red.stddev()).c_str(),
                power_red.min() > 0.25 ? "yes" : "NO");
}

/**
 * Figure 7.2: power consumption of the ARCC memory system in the
 * presence of one device-level fault, normalised to the fault-free
 * system, per mix and per fault type (Table 7.4 upgrade fractions),
 * with the worst-case estimate (1 + upgraded fraction).
 */
void
fig7_2()
{
    printBanner(
        "Figure 7.2: Power Consumption of a Memory System with Fault");
    std::printf("ARCC power with one fault, normalised to fault-free "
                "(1.00 = no overhead).\n\n");

    // Worst-case estimate: every upgraded access costs double and the
    // second sub-line is never useful -> power multiplier is
    // 1 + fraction of pages upgraded.
    const std::array<RunningStat, 4> per_scenario = faultTable(
        "fig7_2", "norm_power",
        [](const SimResult &r) { return r.avgPowerMw; },
        [](double f) { return 1.0 + f; });
    std::printf("\nShape checks (paper Section 7.2):\n");
    bool ordered = per_scenario[0].mean() >= per_scenario[1].mean() &&
                   per_scenario[1].mean() >= per_scenario[2].mean() &&
                   per_scenario[2].mean() >= per_scenario[3].mean();
    std::printf("  lane >= device >= subbank >= column: %s\n",
                ordered ? "yes" : "NO");
    std::printf("  measured lane overhead (%.1f%%) below worst-case "
                "estimate (100%%): %s\n",
                (per_scenario[0].mean() - 1.0) * 100.0,
                per_scenario[0].mean() < 2.0 ? "yes" : "NO");
}

/**
 * Figure 7.3: performance (sum of IPCs) of the ARCC memory system in
 * the presence of one device-level fault, normalised to fault-free.
 * Mixes with spatial locality benefit from the implicit 128B prefetch;
 * low-locality mixes degrade.  Worst case (no locality, bandwidth
 * bound) is -50% under a lane fault.
 */
void
fig7_3()
{
    printBanner(
        "Figure 7.3: Performance of a Memory System with Fault");
    std::printf("ARCC IPC with one fault, normalised to fault-free "
                "(>1.00 = the paired fetch acts as a prefetch).\n\n");

    // Worst case: no spatial locality and bandwidth-bound -- an
    // upgraded access consumes two bus slots for one useful line, so
    // throughput scales by 1/(1+f).
    const std::array<RunningStat, 4> per_scenario = faultTable(
        "fig7_3", "norm_ipc",
        [](const SimResult &r) { return r.ipcSum; },
        [](double f) { return 1.0 / (1.0 + f); });
    int improved = 0, degraded = 0;
    for (const MixRuns &g : figure7Grid()) {
        double lane = g.fault[0].ipcSum / g.clean.ipcSum;
        improved += lane > 1.005;
        degraded += lane < 0.995;
    }
    std::printf("\nShape checks (paper Section 7.2):\n");
    std::printf("  some mixes improve under a lane fault (prefetch "
                "effect): %s (%d of 12)\n",
                improved > 0 ? "yes" : "NO", improved);
    std::printf("  some mixes degrade under a lane fault: %s (%d of "
                "12)\n",
                degraded > 0 ? "yes" : "NO", degraded);
    std::printf("  average degradation is negligible (paper: "
                "'negligible performance degradation on average'): "
                "avg lane norm %.3f\n",
                per_scenario[0].mean());
    std::printf("  worst-case estimate for a lane fault is -50%% "
                "(0.500): printed above.\n");
}

/**
 * Figure 7.4: average increase in ARCC power over fault-free memory
 * vs time at 1x / 2x / 4x fault rates, measured and worst-case.  The
 * per-fault-type overheads come from the Figure 7.2 grid; the fleet
 * Monte Carlo accumulates each channel's overhead from each fault's
 * arrival, and year X is the fleet average through year X.
 */
void
fig7_4()
{
    printBanner("Figure 7.4: Power Overhead of Error Correction");
    std::printf("Measuring per-fault-type power overheads "
                "(Figure 7.2 methodology)...\n");
    const ScenarioOverheads ov = measureScenarioOverheads();
    std::printf("  lane %.1f%%  device %.1f%%  subbank %.2f%%  "
                "column %.2f%%\n\n",
                ov.power[0] * 100, ov.power[1] * 100,
                ov.power[2] * 100, ov.power[3] * 100);

    const Curves &wc = worstCasePowerCurves();
    const Curves meas = measuredVsWorst(
        "fig7_4", toPerTypeOverhead(ov.power), ov.power[0], wc);
    const double saving = meanPowerSaving().mean();
    std::printf("\nShape checks:\n");
    std::printf("  overhead grows with time and rate factor, stays "
                "small: 4x year-7 measured %.2f%% (< 4%%): %s\n",
                meas[2][6] * 100, meas[2][6] < 0.04 ? "yes" : "NO");
    std::printf("  paper: 'power benefits from ARCC even at the end "
                "of 7 years for 4X the fault rate is no less than "
                "30%%': Figure 7.1 saving %.1f%% (paper 36.7%%) - "
                "%.2f%% = %.1f%% >= 30%%: %s\n",
                saving * 100, wc[2][6] * 100, (saving - wc[2][6]) * 100,
                saving - wc[2][6] >= 0.30 ? "yes" : "NO");
}

/**
 * Figure 7.5: average decrease in ARCC performance as a function of
 * time compared to fault-free memory, for 1x / 2x / 4x fault rates,
 * with the no-spatial-locality worst-case estimate.
 */
void
fig7_5()
{
    printBanner("Figure 7.5: Performance Overhead of Error Correction");
    std::printf("Measuring per-fault-type performance overheads "
                "(Figure 7.3 methodology)...\n");
    const ScenarioOverheads ov = measureScenarioOverheads();
    std::printf("  lane %.2f%%  device %.2f%%  subbank %.2f%%  "
                "column %.2f%%  (negative = the paired prefetch "
                "helps)\n\n",
                ov.perf[0] * 100, ov.perf[1] * 100, ov.perf[2] * 100,
                ov.perf[3] * 100);

    const DomainGeometry geom;
    // Worst case: an upgraded access takes two bus slots -> the
    // degradation contribution of a fault type is f/(1+f) ~ f/2 terms;
    // we use the conservative linear form f (additive, capped at 1/2).
    PerTypeOverhead worst{};
    for (FaultType t : allFaultTypes()) {
        double f = geom.pageFraction(t);
        worst[static_cast<int>(t)] = f / (1.0 + f);
    }
    const Curves wc = overheadCurves(worst, 0.5);
    // Measured per-fault perf deltas may be negative (prefetch wins);
    // the cap only binds the positive direction.
    const Curves meas =
        measuredVsWorst("fig7_5", toPerTypeOverhead(ov.perf),
                        std::max(0.5, ov.perf[0]), wc);
    std::printf("\nShape checks:\n");
    std::printf("  measured degradation stays negligible (paper: "
                "'the degradation both in terms of the worst case\n"
                "  estimate and measured overheads is small'): 4x "
                "year-7 measured %.3f%%, worst-case %.2f%%: %s\n",
                meas[2][6] * 100, wc[2][6] * 100,
                wc[2][6] < 0.04 ? "yes" : "NO");
}

/**
 * Figure 7.6: worst-case-application overhead of ARCC applied to
 * LOT-ECC (nine-device relaxed pages upgraded to 18-device double-
 * chip-sparing pages) vs time.  With all reads and no locality an
 * upgraded access costs 4x a relaxed one (twice the devices plus the
 * relocated checksum read), so a fault costs 3x the fraction of pages
 * it upgrades.  Paper: ~1.6% over 7 years at 1x, <= 6.3% at 4x.
 */
void
fig7_6()
{
    printBanner("Figure 7.6: ARCC + LOT-ECC Worst-Case Overhead");
    std::printf("ARCC+LOT-ECC vs nine-device LOT-ECC; worst-case "
                "application (all reads, no locality):\n"
                "an upgraded access = 4x a relaxed access "
                "(2x devices x 2 accesses), overhead factor 3f.\n\n");

    const Curves by_factor = overheadCurves(worstCaseOverhead(3.0), 3.0);
    curveRows("fig7_6", by_factor);
    printYearTable({"Year", "1x rate", "2x rate", "4x rate"},
                   {&by_factor[0], &by_factor[1], &by_factor[2]});
    double avg1 = by_factor[0][6];
    double avg4 = by_factor[2][6];
    std::printf("\nShape checks (paper Section 7.2.1):\n");
    std::printf("  7-year average overhead at 1x ~ 1.6%% "
                "(measured %.2f%%): %s\n",
                avg1 * 100, avg1 < 0.03 ? "yes" : "NO");
    std::printf("  7-year average overhead at 4x <= ~6.3%% "
                "(measured %.2f%%): %s\n",
                avg4 * 100, avg4 < 0.08 ? "yes" : "NO");
    std::printf("  'a small cost for reducing the DUE rate by 17X by "
                "providing double chip sparing'.\n");
}

/**
 * Tables 7.1-7.4 from the library's own configuration structures (so
 * the printed tables cannot drift from what the simulations actually
 * use), and a functional boot-scrub of the small ARCC memory through
 * the engine-sharded Scrubber::scrubParallel path.
 */
void
tables()
{
    std::printf("ARCC reproduction -- configuration tables "
                "(HPCA 2013, Tables 7.1-7.4)\n");

    printBanner("Table 7.1: Memory Configurations");
    TextTable t1;
    t1.header({"Name", "Tech", "I/O", "Chan", "Ranks/Chan", "Rank Size",
               "Devices/Access"});
    for (const MemoryConfig &c : {baselineConfig(), arccConfig()}) {
        t1.row({c.name == baselineConfig().name ? "Baseline" : "ARCC",
                "DDR2", toString(c.device.width),
                std::to_string(c.channels),
                std::to_string(c.ranksPerChannel),
                std::to_string(c.devicesPerRank),
                std::to_string(c.devicesPerAccess)});
    }
    t1.print();
    std::printf("\n(total devices: %d each; data capacity 4 GB; "
                "storage overhead 12.5%% both)\n",
                baselineConfig().totalDevices());

    printBanner("Table 7.2: Processor Microarchitecture");
    TextTable t2;
    t2.header({"SS Width", "IQ Size", "Phys Regs", "LSQ Size"});
    t2.row({"2", "16", "72FP/72INT", "32LQ/32SQ"});
    t2.print();
    TextTable t2b;
    t2b.header({"L1 D$,I$", "L1 Assoc", "L1 lat.", "L2$", "L2 Assoc",
                "L2 lat.", "Line", "L2 MSHR"});
    t2b.row({"32 kB", "2", "1 cycle", "1MB", "16", "10 cycles", "64B",
             "240"});
    t2b.print();
    std::printf("\n(model: 2-wide cores with per-benchmark base IPC; "
                "1MB 16-way shared LLC, 64B lines)\n");

    printBanner("Table 7.3: Workloads");
    TextTable t3;
    t3.header({"Mix", "Benchmarks"});
    for (const WorkloadMix &mix : table73Mixes()) {
        std::string list;
        for (const auto &b : mix.benchmarks)
            list += (list.empty() ? "" : ";") + b;
        t3.row({mix.name, list});
    }
    t3.print();

    printBanner("Table 7.4: Fault Modeling Details");
    const DomainGeometry g;
    TextTable t4;
    t4.header({"Fault Type", "Fraction of Pages Upgraded"});
    for (const auto &[name, type, note] :
         {std::tuple{"Lane", FaultType::Lane, "  (both ranks upgraded)"},
          {"Device", FaultType::Device, "  (1 of 2 ranks)"},
          {"Subbank", FaultType::Bank, "  (1 of 8 banks of 1 rank)"},
          {"Column", FaultType::Column, "  (half the pages of 1 bank)"}})
        t4.row({name, TextTable::num(g.pageFraction(type), 4) + note});
    t4.row({"Row", TextTable::sci(g.pageFraction(FaultType::Row), 1) +
                       "  (2 pages/row)"});
    t4.row({"Bit/Word", TextTable::sci(g.pageFraction(FaultType::Bit), 1)});
    t4.print();

    std::printf("\nField-study FIT rates per device "
                "(approximating Sridharan & Liberty SC'12):\n");
    TextTable r;
    r.header({"Fault", "FIT/device"});
    FaultRates rates = FaultRates::fieldStudy();
    for (FaultType ft : allFaultTypes())
        r.row({toString(ft), TextTable::num(rates[ft], 1)});
    r.row({"total", TextTable::num(rates.totalFit(), 1)});
    r.print();
    Fields fields;
    for (FaultType ft : allFaultTypes())
        fields.emplace_back(toString(ft), bench::jsonNum(rates[ft]));
    fields.emplace_back("totalFit", bench::jsonNum(rates.totalFit()));
    bench::jsonRow("tables_fit_rates", fields);

    // Exercise the sharded scrubber on the functional plane the
    // tables describe: boot an arccSmall memory with pseudo-random
    // content and relax-demote it through scrubParallel.
    printBanner("Appendix: boot scrub through the parallel engine");
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(20130223);
    for (std::uint64_t addr = 0; addr < mem.capacity();
         addr += kLineBytes) {
        std::vector<std::uint8_t> line(kLineBytes);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(addr, line);
    }
    ScrubReport rep = Scrubber().bootScrubParallel(mem);
    // The executor count lives only in the jsonRow's "threads" field,
    // so the human text is the same at every thread count.
    std::printf("scrubParallel: %llu lines, %llu pages relaxed, "
                "%llu faulty\n",
                static_cast<unsigned long long>(rep.linesScrubbed),
                static_cast<unsigned long long>(rep.pagesRelaxed),
                static_cast<unsigned long long>(
                    rep.faultyPages.size()));
    bench::jsonRow(
        "tables_boot_scrub",
        {{"linesScrubbed", bench::jsonNum(rep.linesScrubbed)},
         {"pagesRelaxed", bench::jsonNum(rep.pagesRelaxed)},
         {"faultyPages",
          bench::jsonNum(
              static_cast<std::uint64_t>(rep.faultyPages.size()))},
         {"errorsCorrected", bench::jsonNum(rep.errorsCorrected)}});
}

/**
 * Section 6.1 (DUE rates) and the Chapter 5.2 motivation for double
 * chip sparing.  ARCC does not degrade the DUE rate: both it and the
 * baseline turn a second overlapping fault into a DUE, so the model's
 * DUE structure is the same for both geometries.  Double chip sparing
 * cuts the DUE rate (the paper cites 17X from HP); in this window-only
 * model a pair is uncorrectable only when the second fault lands
 * inside the first one's scrub window, so the benefit is exactly
 * lifespan hours / scrub period.
 */
void
due()
{
    printBanner("Section 6.1: DUE rates and the chip-sparing benefit");
    TextTable t;
    t.header({"Rate", "Lifespan", "SCC DUE /1000 MY",
              "DCS DUE /1000 MY", "sparing benefit"});
    for (double factor : kRateFactors) {
        for (double years : {5.0, 7.0}) {
            SdcModelConfig cfg = SdcModelConfig::sccdcdMachine();
            cfg.rates = FaultRates::fieldStudy().scaled(factor);
            SdcModel m(cfg);
            // Single chipkill correct: any overlapping pair over the
            // lifetime is uncorrectable -> DUE.
            double scc = m.dueEvents(years) / years * 1000.0;
            // Double chip sparing: the pair is only fatal inside the
            // detection window, which is the same mathematical object
            // as the ARCC-DED SDC structure.
            double dcs = m.arccSdcEvents(years) / years * 1000.0;
            t.row({TextTable::num(factor, 0) + "x",
                   TextTable::num(years, 0) + "y",
                   TextTable::sci(scc, 2), TextTable::sci(dcs, 2),
                   TextTable::num(scc / dcs, 0) + "x"});
            bench::jsonRow("due", {{"factor", bench::jsonNum(factor)},
                                   {"years", bench::jsonNum(years)},
                                   {"scc_due", bench::jsonNum(scc)},
                                   {"dcs_due", bench::jsonNum(dcs)},
                                   {"benefit", bench::jsonNum(scc / dcs)}});
        }
    }
    t.print();
    std::printf("\nSection 6.1 claims, checked by construction:\n");
    const SdcModelConfig base_cfg = SdcModelConfig::sccdcdMachine();
    double base_due = SdcModel(base_cfg).dueEvents(7.0);
    double arcc_due = SdcModel(SdcModelConfig::arccMachine()).dueEvents(7.0);
    bench::jsonRow("due_machine", {{"years", bench::jsonNum(7.0)},
                                   {"sccdcd_due", bench::jsonNum(base_due)},
                                   {"arcc_due", bench::jsonNum(arcc_due)}});
    std::printf("  SCCDCD DUE (72 devices as 2x36): %.3e per machine "
                "over 7y\n", base_due);
    std::printf("  ARCC   DUE (72 devices as 4x18): %.3e per machine "
                "over 7y\n", arcc_due);
    std::printf("  (the ARCC grouping has *fewer* devices per "
                "codeword, so its raw pair-overlap DUE rate is\n"
                "   lower; the paper's claim -- no degradation -- "
                "holds with margin)\n");
    const double h = base_cfg.scrubHours;
    std::printf("\nThe sparing-benefit column is lifespan hours / scrub "
                "period: %g/%g = %.1f at 5y and\n%g/%g = %.1f at 7y, the "
                "same at every rate factor.  It comes from a window-only\n"
                "overlap model (double chip sparing fails only when the "
                "second fault lands in the\nfirst one's scrub window), "
                "which leaves out spare exhaustion and remap latency.\n"
                "It is not a reproduction of the paper's figure: the "
                "paper cites a 17X DUE\nreduction from HP when motivating "
                "ARCC+LOT-ECC (Chapter 5.2).\n",
                5 * kHoursPerYear, h, 5 * kHoursPerYear / h,
                7 * kHoursPerYear, h, 7 * kHoursPerYear / h);
}

/** Device accesses per read/write for one VECC geometry and state,
 *  at a tier-2 LLC hit rate of 50%. */
void
veccProfile(TextTable &t, const char *label, const VeccGeometry &geom,
            bool dead_device)
{
    VeccMemory mem(geom, 256, 0.5, 11);
    Rng rng(12);
    std::vector<std::uint8_t> line(mem.lineBytes());
    for (std::uint64_t l = 0; l < 256; ++l) {
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(l, line);
    }
    auto writes = mem.stats().deviceAccesses;
    if (dead_device)
        mem.killDevice(3);
    for (std::uint64_t l = 0; l < 256; ++l)
        mem.read(l);
    const double per_read =
        static_cast<double>(mem.stats().deviceAccesses - writes) / 256.0;
    const double per_write = static_cast<double>(writes) / 256.0;
    t.row({label, std::to_string(geom.devices),
           TextTable::num(per_read, 1), TextTable::num(per_write, 1),
           std::to_string(mem.stats().tier2Fetches),
           std::to_string(mem.stats().corrected)});
    bench::jsonRow("vecc_profile",
                   {{"config", jsonStr(label)},
                    {"devices", std::to_string(geom.devices)},
                    {"dev_acc_per_read", bench::jsonNum(per_read)},
                    {"dev_acc_per_write", bench::jsonNum(per_write)},
                    {"t2_fetches", bench::jsonNum(mem.stats().tier2Fetches)},
                    {"corrected", bench::jsonNum(mem.stats().corrected)}});
}

/**
 * Chapter 5.2, VECC half: access-amplification profile of VECC and of
 * ARCC applied to VECC (18-device -> 9-device relaxed ranks), plus the
 * lifetime overhead of the upgraded pages, mirroring the Figure 7.6
 * analysis for the VECC substrate.
 */
void
vecc()
{
    printBanner("Chapter 5.2: ARCC applied to VECC");
    std::printf("Device accesses per operation (256-line functional "
                "region, tier-2 LLC hit rate 50%%):\n\n");
    TextTable t;
    t.header({"Configuration", "Rank", "dev-acc/read", "dev-acc/write",
              "t2 fetches", "corrected"});
    const VeccGeometry vecc18 = VeccGeometry::vecc18();
    const VeccGeometry vecc9 = VeccGeometry::vecc9();
    veccProfile(t, "VECC 18-dev, fault-free", vecc18, false);
    veccProfile(t, "VECC 18-dev, 1 dead device", vecc18, true);
    veccProfile(t, "ARCC+VECC relaxed 9-dev, fault-free", vecc9, false);
    veccProfile(t, "ARCC+VECC relaxed 9-dev, 1 dead device", vecc9, true);
    t.print();
    std::printf("\nReading: fault-free VECC touches 18 devices; ARCC "
                "relaxes fault-free pages to 9-device\nranks "
                "(Chapter 5.2), halving the access cost while a dead "
                "device still corrects through\nthe virtualised "
                "tier-2 symbols at 2x cost.\n");

    // Lifetime overhead of upgraded (18-device) pages vs the 9-device
    // relaxed baseline: upgraded reads cost 2x.  Same methodology as
    // Figure 7.6 with cost factor 1 (power doubles on upgraded pages),
    // which is Figure 7.4's worst-case curve.
    printBanner("Lifetime overhead of ARCC+VECC upgrades");
    const Curves &by_factor = worstCasePowerCurves();
    curveRows("vecc_overhead", by_factor);
    printYearTable({"Year", "1x rate", "2x rate", "4x rate"},
                   {&by_factor[0], &by_factor[1], &by_factor[2]});
    std::printf("\nShape: worst-case upgrade overhead stays well "
                "below the ~50%% fault-free saving of\nthe 9-device "
                "relaxed mode, the same story as Figures 7.4-7.6.\n");
}

/**
 * Ablation studies for the design choices the paper discusses: the
 * paired-tag LLC vs the sectored cache it rejects (Section 4.2.3),
 * the strict-FIFO vs pointer sub-line pairing (Section 4.2.4), the
 * address mapping policy (Section 4.1 / 7.1) and rank power-down.
 * Every simulation goes through one simulateMixBatch; the tables read
 * the results back in submission order.
 */
void
ablation()
{
    printBanner("Ablation studies");
    const SystemConfig base = systemConfig(arccConfig());
    const auto lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, base.mem);
    // A device fault upgrades half the pages, so paired and relaxed
    // traffic interleave -- the state where the strict FIFO sub-line
    // queue can block relaxed requests behind a waiting pair and the
    // pointer design cannot.
    const auto device = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Device, base.mem);
    const WorkloadMix &pointer_mix = table73Mixes()[9]; // mcf-heavy.
    const WorkloadMix &stream_mix = table73Mixes()[0];  // spatial.
    const std::array<const WorkloadMix *, 2> llc_mixes = {&pointer_mix,
                                                          &stream_mix};
    const std::array<std::pair<PairingPolicy, const char *>, 2> pairings =
        {{{PairingPolicy::FifoPartition, "strict FIFO partition"},
          {PairingPolicy::Pointer, "pointer / promotion"}}};
    const std::array<std::pair<MapPolicy, const char *>, 3> maps = {{
        {MapPolicy::HiPerf, "high performance (paper)"},
        {MapPolicy::ClosePage, "close page"},
        {MapPolicy::Base, "base"},
    }};

    std::vector<MixJob> jobs;
    for (bool sectored : {false, true}) {
        for (const WorkloadMix *mix : llc_mixes) {
            SystemConfig cfg = base;
            cfg.sectoredLlc = sectored;
            jobs.push_back({*mix, cfg, lane});
        }
    }
    for (const auto &[policy, name] : pairings) {
        SystemConfig cfg = base;
        cfg.ctrl.pairing = policy;
        jobs.push_back({pointer_mix, cfg, device});
    }
    // The Base map keeps adjacent lines in one channel, so paired
    // upgrades are impossible; run fault-free.
    for (const auto &[policy, name] : maps) {
        SystemConfig cfg = base;
        cfg.mapPolicy = policy;
        jobs.push_back({stream_mix, cfg, {}});
    }
    for (bool pd : {true, false}) {
        for (SystemConfig cfg : {systemConfig(baselineConfig()), base}) {
            cfg.ctrl.enablePowerDown = pd;
            jobs.push_back({stream_mix, cfg, {}});
        }
    }
    const std::vector<SimResult> results = simulateMixBatch(jobs);
    auto next = results.begin();

    TextTable llc;
    llc.header({"LLC design", "Mix", "IPC sum (lane fault)",
                "LLC miss rate"});
    for (const char *design : {"paired-tag (paper)", "sectored"}) {
        for (const WorkloadMix *mix : llc_mixes) {
            const SimResult &r = *next++;
            llc.row({design, mix->name, TextTable::num(r.ipcSum, 3),
                     TextTable::num(r.llcStats.missRate(), 3)});
            bench::jsonRow("ablation_llc",
                           {{"design", jsonStr(design)},
                            {"mix", jsonStr(mix->name)},
                            {"ipc_sum", bench::jsonNum(r.ipcSum)},
                            {"llc_miss_rate",
                             bench::jsonNum(r.llcStats.missRate())}});
        }
    }
    std::printf("LLC design under a lane fault (all pages upgraded):\n");
    llc.print();

    TextTable pairing;
    pairing.header({"Sub-line pairing", "IPC sum (device fault)",
                    "Power mW"});
    for (const auto &[policy, name] : pairings) {
        const SimResult &r = *next++;
        pairing.row({name, TextTable::num(r.ipcSum, 3),
                     TextTable::num(r.avgPowerMw, 0)});
        bench::jsonRow("ablation_pairing",
                       {{"pairing", jsonStr(name)},
                        {"ipc_sum", bench::jsonNum(r.ipcSum)},
                        {"power_mw", bench::jsonNum(r.avgPowerMw)}});
    }
    std::printf("\nMemory-controller pairing designs (Section 4.2.4), "
                "%s with half the pages upgraded:\n",
                pointer_mix.name.c_str());
    pairing.print();
    std::printf("(under FCFS scheduling the two designs differ only "
                "marginally, which is why the paper\n"
                "offers both as acceptable implementations)\n\n");

    TextTable map;
    map.header({"Address map", "IPC sum", "Power mW"});
    for (const auto &[policy, name] : maps) {
        const SimResult &r = *next++;
        map.row({name, TextTable::num(r.ipcSum, 3),
                 TextTable::num(r.avgPowerMw, 0)});
        bench::jsonRow("ablation_map",
                       {{"map", jsonStr(name)},
                        {"ipc_sum", bench::jsonNum(r.ipcSum)},
                        {"power_mw", bench::jsonNum(r.avgPowerMw)}});
    }
    std::printf("Address mapping policy (fault-free, %s):\n",
                stream_mix.name.c_str());
    map.print();

    TextTable pd;
    pd.header({"Rank power-down", "Baseline mW", "ARCC mW",
               "ARCC saving"});
    for (const char *state : {"enabled", "disabled"}) {
        const SimResult &rb = *next++;
        const SimResult &ra = *next++;
        double saving = 1.0 - ra.avgPowerMw / rb.avgPowerMw;
        pd.row({state, TextTable::num(rb.avgPowerMw, 0),
                TextTable::num(ra.avgPowerMw, 0), TextTable::pct(saving)});
        bench::jsonRow("ablation_power_down",
                       {{"power_down", jsonStr(state)},
                        {"base_mw", bench::jsonNum(rb.avgPowerMw)},
                        {"arcc_mw", bench::jsonNum(ra.avgPowerMw)},
                        {"saving", bench::jsonNum(saving)}});
    }
    std::printf("\nRank power-down contribution to the power story "
                "(%s):\n", stream_mix.name.c_str());
    pd.print();
}

/**
 * Chapter 3 motivation: halving the rank size (36 -> 18 devices, same
 * 12.5% storage overhead, 2 check symbols instead of 4) cuts memory
 * power by ~36.7% on quad-core multiprogrammed SPEC workloads -- at
 * the cost of single instead of double symbol detection.  Regenerates
 * the motivational comparison (Figure 7.1's fault-free pair) plus the
 * per-access energy decomposition behind it.
 */
void
motivation()
{
    printBanner("Chapter 3 Motivation: rank size 18 vs 36");
    // Per-access dynamic energy decomposition.
    TextTable e;
    e.header({"Config", "Devices/access", "ACT+PRE nJ/dev",
              "RD burst nJ/dev", "nJ per 64B read"});
    const std::array<std::pair<const char *, MemoryConfig>, 2> configs =
        {{{"36-device rank (x4)", baselineConfig()},
          {"18-device rank (x8)", arccConfig()}}};
    std::array<double, 2> per_access{};
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto &[name, c] = configs[i];
        const double act_pre = c.device.actPreEnergy();
        const double burst = c.device.readBurstEnergy();
        per_access[i] = c.devicesPerAccess * (act_pre + burst);
        e.row({name, std::to_string(c.devicesPerAccess),
               TextTable::num(act_pre, 2), TextTable::num(burst, 2),
               TextTable::num(per_access[i], 1)});
        bench::jsonRow(
            "motivation_energy",
            {{"config", jsonStr(name)},
             {"devices_per_access", std::to_string(c.devicesPerAccess)},
             {"act_pre_nj", bench::jsonNum(act_pre)},
             {"rd_burst_nj", bench::jsonNum(burst)},
             {"nj_per_read", bench::jsonNum(per_access[i])}});
    }
    e.print();
    std::printf("\nDynamic energy ratio per access: %.2f\n",
                per_access[1] / per_access[0]);
    // Whole-system measurement across the 12 mixes.
    const double saving = meanPowerSaving().mean();
    std::printf("\nMeasured average memory power reduction across the "
                "12 mixes: %.1f%%\n"
                "(paper's motivational experiment: 36.7%%)\n",
                saving * 100.0);
    std::printf("\nThe price: 2 check symbols only guarantee single "
                "bad symbol detection -- which is\nexactly the gap "
                "ARCC closes adaptively (Chapters 4 and 6).\n");
}

struct Figure
{
    const char *name;
    void (*run)();
};

/** Every figure, in the order a bare `bench_paper` runs them. */
constexpr Figure kFigures[] = {
    {"fig3_1", fig3_1}, {"fig6_1", fig6_1}, {"fig7_1", fig7_1},
    {"fig7_2", fig7_2}, {"fig7_3", fig7_3}, {"fig7_4", fig7_4},
    {"fig7_5", fig7_5}, {"fig7_6", fig7_6}, {"tables", tables},
    {"due", due},       {"vecc", vecc},     {"ablation", ablation},
    {"motivation", motivation},
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Figure *> selected;
    std::string known;
    for (const Figure &fig : kFigures)
        known.append(known.empty() ? "" : " ").append(fig.name);
    for (int i = 1; i < argc; ++i) {
        const std::string name = argv[i];
        const Figure *f =
            std::find_if(std::begin(kFigures), std::end(kFigures),
                         [&](const Figure &x) { return name == x.name; });
        if (f == std::end(kFigures))
            fatal("unknown figure '%s' (known: %s)", argv[i], known.c_str());
        selected.push_back(f);
    }
    if (selected.empty())
        for (const Figure &fig : kFigures)
            selected.push_back(&fig);
    for (const Figure *f : selected)
        f->run();
    return 0;
}
