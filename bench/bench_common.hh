/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Every bench prints the rows/series of one paper table or figure.
 * The simulated instruction budget scales with ARCC_BENCH_INSTRS
 * (default one million per core, which reproduces the shapes in a few
 * seconds per figure; the paper used 2 billion cycles in M5).
 */

#ifndef ARCC_BENCH_BENCH_COMMON_HH
#define ARCC_BENCH_BENCH_COMMON_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "common/parse_num.hh"
#include "common/table.hh"
#include "cpu/system_sim.hh"
#include "engine/sim_engine.hh"
#include "faults/fault_model.hh"

namespace arcc::bench
{

/** Per-core instruction budget (env ARCC_BENCH_INSTRS overrides;
 *  a set-but-unparseable value is fatal, never a silent zero). */
inline std::uint64_t
instrBudget()
{
    return envU64("ARCC_BENCH_INSTRS", 1'000'000);
}

/** Pre-format a counter / double for a jsonRow value. */
inline std::string
jsonNum(std::uint64_t v)
{
    return std::to_string(v);
}

inline std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Version of the jsonRow schema.  Bump when the row layout changes
 *  (fields added / removed / renamed) so downstream consumers can
 *  reject rows they do not understand. */
inline constexpr std::uint32_t kBenchSchemaVersion = 2;

/**
 * Stable hash of what shaped a row: schema version, bench family,
 * field-name list, and the instruction budget.  Deliberately excludes
 * the thread count and every field *value*, so CI's 1-vs-N-thread and
 * scalar-vs-SIMD diff legs see identical hashes and any mismatch
 * flags a real schema drift.
 */
inline std::uint64_t
rowConfigHash(const std::string &bench,
              const std::vector<std::pair<std::string, std::string>>
                  &fields)
{
    auto fold = [](std::uint64_t h, std::uint64_t v) {
        return Rng::mix64(h ^ v);
    };
    auto foldString = [&](std::uint64_t h, const std::string &s) {
        h = fold(h, s.size());
        for (char c : s)
            h = fold(h, static_cast<std::uint8_t>(c));
        return h;
    };
    std::uint64_t h = fold(0x524f5748ULL, kBenchSchemaVersion);
    h = foldString(h, bench);
    h = fold(h, instrBudget());
    for (const auto &[key, value] : fields)
        h = foldString(h, key);
    return h;
}

/**
 * Emit one machine-readable JSON line alongside the human tables.
 *
 * Every row carries the executor count of the global engine
 * (ARCC_THREADS / the hardware), the schema version, and the row's
 * config hash.  CI's 1-vs-N-thread diff normalises the "threads"
 * field and requires every other value to be bit-identical -- the
 * bench-level enforcement of the engine's determinism contract.
 */
inline void
jsonRow(const std::string &bench,
        const std::vector<std::pair<std::string, std::string>> &fields)
{
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      rowConfigHash(bench, fields)));
    std::string out = "{\"bench\":\"" + bench +
                      "\",\"schema_version\":" +
                      std::to_string(kBenchSchemaVersion) +
                      ",\"config_hash\":\"" + hash +
                      "\",\"threads\":" +
                      std::to_string(SimEngine::global().threads());
    for (const auto &[key, value] : fields)
        out += ",\"" + key + "\":" + value;
    out += "}";
    std::printf("%s\n", out.c_str());
}

/** Standard simulation config for a memory configuration. */
inline SystemConfig
systemConfig(const MemoryConfig &mem)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.instrsPerCore = instrBudget();
    cfg.seed = 20130223; // HPCA 2013.
    return cfg;
}

/** The Table 7.4 fault scenarios in paper order. */
inline const std::vector<PageUpgradeOracle::Scenario> &
faultScenarios()
{
    static const std::vector<PageUpgradeOracle::Scenario> s = {
        PageUpgradeOracle::Scenario::Lane,
        PageUpgradeOracle::Scenario::Device,
        PageUpgradeOracle::Scenario::Bank,
        PageUpgradeOracle::Scenario::Column,
    };
    return s;
}

/** Power / performance overheads of one fault scenario vs fault-free. */
struct ScenarioOverheads
{
    /** Fractional power increase per scenario (paper Figure 7.2). */
    std::array<double, 4> power{};
    /** Fractional IPC decrease per scenario (paper Figure 7.3). */
    std::array<double, 4> perf{};
};

/**
 * Measure the mix-averaged overhead of each Table 7.4 scenario on the
 * ARCC configuration (methodology step 1 of Section 7.1).
 *
 * The whole (mix x {clean, 4 scenarios}) grid is submitted to the
 * SimEngine as one simulateMixBatch and reduced in mix order, so the
 * averages are bit-identical at any thread count.
 *
 * @param mixes how many of the 12 mixes to average (all by default).
 */
inline ScenarioOverheads
measureScenarioOverheads(int mixes = 12)
{
    ARCC_ASSERT(mixes >= 1 &&
                mixes <= static_cast<int>(table73Mixes().size()));
    const SystemConfig cfg = systemConfig(arccConfig());
    const std::size_t scenarios = faultScenarios().size();
    // ScenarioOverheads and the sums below are fixed-size arrays.
    ARCC_ASSERT(scenarios == 4);
    const std::size_t per_mix = scenarios + 1; // clean job first.

    std::vector<MixJob> jobs;
    jobs.reserve(mixes * per_mix);
    for (int m = 0; m < mixes; ++m) {
        const WorkloadMix &mix = table73Mixes()[m];
        jobs.push_back({mix, cfg, {}});
        for (std::size_t s = 0; s < scenarios; ++s)
            jobs.push_back({mix, cfg,
                            PageUpgradeOracle::forScenario(
                                faultScenarios()[s], cfg.mem)});
    }
    std::vector<SimResult> results = simulateMixBatch(jobs);

    ScenarioOverheads out;
    std::array<double, 4> power_sum{};
    std::array<double, 4> perf_sum{};
    for (int m = 0; m < mixes; ++m) {
        const SimResult &clean = results[m * per_mix];
        for (std::size_t s = 0; s < scenarios; ++s) {
            const SimResult &r = results[m * per_mix + 1 + s];
            power_sum[s] += r.avgPowerMw / clean.avgPowerMw - 1.0;
            perf_sum[s] += 1.0 - r.ipcSum / clean.ipcSum;
        }
    }
    for (std::size_t s = 0; s < 4; ++s) {
        out.power[s] = power_sum[s] / mixes;
        out.perf[s] = perf_sum[s] / mixes;
    }
    return out;
}

/**
 * Map measured scenario overheads onto the fault taxonomy for the
 * fleet overhead curves (Figures 7.4 / 7.5).  Row / word / bit faults
 * upgrade a negligible number of pages, so their overhead is ~0.
 */
inline PerTypeOverhead
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
inline PerTypeOverhead
worstCaseOverhead(const DomainGeometry &geom, double cost_factor)
{
    PerTypeOverhead o{};
    for (FaultType t : allFaultTypes())
        o[static_cast<int>(t)] =
            cost_factor * geom.pageFraction(t);
    return o;
}

/** Default reliability-domain geometry (72 devices, 4 GB). */
inline DomainGeometry
defaultGeometry()
{
    DomainGeometry g;
    g.ranks = 2;
    g.devicesPerRank = 36;
    g.banksPerDevice = 8;
    g.pagesPerRow = 2;
    g.pages = 1048576;
    return g;
}

/**
 * The paper's fleet for the lifetime curves (Figures 3.1 and
 * 7.4-7.6): 10000 channels of `geom` over 7 years at `factor`x the
 * field-study rates, seed 2013.
 */
inline CampaignSpec
fleetSpec(const DomainGeometry &geom, double factor)
{
    CampaignSpec spec;
    spec.geom = geom;
    spec.rateBoost = factor;
    spec.years = 7.0;
    spec.channels = 10000;
    spec.seed = 2013;
    return spec;
}

} // namespace arcc::bench

#endif // ARCC_BENCH_BENCH_COMMON_HH
