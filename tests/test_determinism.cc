/**
 * @file
 * Determinism proofs for every parallel kernel (ctest label
 * `determinism`): golden values plus N-thread-vs-1-thread equality
 * for the fleet campaign (its aggregate, its lifetime curves and the
 * SDC validation point), the sharded scrubber, and the mix simulation
 * batch.
 *
 * Two kinds of test:
 *
 *  - engine-pinned: run the same kernel on engines of 1, 2 and 7
 *    executors and require bit-identical results;
 *  - golden: run through SimEngine::global() -- whose size comes from
 *    ARCC_THREADS -- and compare against hardcoded values.  CI runs
 *    this label at ARCC_THREADS=1 and 4, so a kernel whose result
 *    drifts with the thread count fails there even if it is
 *    self-consistent within one process.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "arcc/scrubber.hh"
#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "dram/channel_shard.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "faults/fault_matrix.hh"
#include "reliability/sdc_model.hh"

namespace arcc
{
namespace
{

/** The thread counts every equality test sweeps. */
const std::vector<int> kThreadCounts = {1, 2, 7};

// --- Figure 6.1 SDC validation Monte Carlo -----------------------------

TEST(McSdcDeterminism, GoldenValuesOnTheGlobalEngine)
{
    // Golden campaign counters for the Figure 6.1 validation point
    // (arcc machine, years=7, boost=2000, trials=300, seed=99).  The
    // global engine's size comes from ARCC_THREADS: CI runs this at 1
    // and 4 threads and both must reproduce these numbers.
    const CampaignSpec spec = sdcValidationSpec(
        SdcModelConfig::arccMachine(), 7.0, 2000.0, 300, 99);
    const CampaignAggregate r = CampaignDriver(spec).run().aggregate;
    EXPECT_EQ(r.trials, 300u);
    EXPECT_EQ(r.sdcCandidates, 63u);
    EXPECT_EQ(r.faultsSampled, 151382u);
    EXPECT_EQ(r.dueCandidates, 1228115u);
    EXPECT_EQ(r.trialsWithFault, 300u);
    EXPECT_EQ(r.hash(), 0xe27289da7e755de2ULL);
}

// --- fleet lifetime curves (Figures 3.1 and 7.4-7.6) -------------------

/** Affected-fraction and cumulative-overhead curves of one fleet. */
struct FleetCurves
{
    std::vector<double> affected;
    std::vector<double> overhead;
};

/** 2000 channels, 7 years, field-study rates, seed 2013, quarterly
 *  affected grid, worst-case (page-fraction) overhead capped at 1. */
FleetCurves
runFleetCurves()
{
    CampaignSpec spec;
    spec.rateBoost = 1.0;
    spec.years = 7.0;
    spec.channels = 2000;
    spec.seed = 2013;
    const CampaignDriver fleet(spec);
    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] =
            DomainGeometry{}.pageFraction(t);
    return {fleet.affectedCurve(4).avgFraction,
            fleet.overheadByYear(overhead, 1.0)};
}

/** Bit-exact digest of a curve: every double's bit pattern. */
std::uint64_t
curveBits(const std::vector<double> &curve)
{
    std::uint64_t h = curve.size();
    for (double v : curve)
        h = Rng::mix64(h ^ std::bit_cast<std::uint64_t>(v));
    return h;
}

TEST(FleetCurveDeterminism, GoldenCurvesOnTheGlobalEngine)
{
    // Pins the exact doubles the figure benches print, on the global
    // engine (CI runs this label at ARCC_THREADS=1 and 4).
    const FleetCurves c = runFleetCurves();
    ASSERT_EQ(c.affected.size(), 28u);
    ASSERT_EQ(c.overhead.size(), 7u);
    EXPECT_EQ(c.affected.back(), 0x1.4dd474bc6a7fp-7);
    EXPECT_EQ(c.overhead.back(), 0x1.24b2776e6c141p-8);
    EXPECT_EQ(curveBits(c.affected), 0xb5232cba66311728ULL);
    EXPECT_EQ(curveBits(c.overhead), 0xabd899b6bbdd35aaULL);
}

// --- codec-zoo fault-injection matrix ----------------------------------

/** One RS, one SECDED, one BCH codec: every injection granularity. */
FaultMatrixConfig
faultMatrixConfig()
{
    FaultMatrixConfig cfg;
    cfg.codecs = {"arcc-relaxed", "hsiao72", "bch512-t2"};
    cfg.trialsPerCell = 96;
    cfg.exhaustiveLimit = 640;
    cfg.seed = 20130223;
    return cfg;
}

TEST(FaultMatrixDeterminism, BitIdenticalAcrossThreadCounts)
{
    SimEngine ref_engine(SimEngine::Options{1});
    FaultMatrixResult ref =
        runFaultMatrix(faultMatrixConfig(), &ref_engine);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        FaultMatrixResult r =
            runFaultMatrix(faultMatrixConfig(), &engine);
        ASSERT_EQ(r.cells.size(), ref.cells.size());
        for (std::size_t i = 0; i < ref.cells.size(); ++i) {
            SCOPED_TRACE(ref.cells[i].codec + "/" +
                         toString(ref.cells[i].mode) + "/" +
                         std::to_string(ref.cells[i].errors));
            EXPECT_EQ(r.cells[i].trials, ref.cells[i].trials);
            EXPECT_EQ(r.cells[i].clean, ref.cells[i].clean);
            EXPECT_EQ(r.cells[i].corrected, ref.cells[i].corrected);
            EXPECT_EQ(r.cells[i].miscorrected,
                      ref.cells[i].miscorrected);
            EXPECT_EQ(r.cells[i].due, ref.cells[i].due);
            EXPECT_EQ(r.cells[i].sdc, ref.cells[i].sdc);
        }
        EXPECT_EQ(r.hash(), ref.hash());
    }
}

TEST(FaultMatrixDeterminism, GoldenHashOnTheGlobalEngine)
{
    // Golden digest of the whole (codec x mode x error-count) table
    // for faultMatrixConfig(), via the ARCC_THREADS-sized global
    // engine: CI runs this at 1 and 4 threads and both must reproduce
    // it bit-for-bit.  Any change to a codec, the injection plan, or
    // the Rng stream layout lands here first.
    FaultMatrixResult r = runFaultMatrix(faultMatrixConfig());
    EXPECT_EQ(r.cells.size(), 23u);
    EXPECT_EQ(r.hash(), 0xfcad756f62442c10ULL);
}

// --- sharded scrubber --------------------------------------------------

/** A 512KB ARCC memory with pseudo-random content, one corrupt
 *  device, and one stuck-at-1 row: every scrub step has work. */
ArccMemory
scrubFixture()
{
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(2026);
    for (std::uint64_t addr = 0; addr < mem.capacity();
         addr += kLineBytes) {
        std::vector<std::uint8_t> line(kLineBytes);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(addr, line);
    }

    FunctionalFault dead;
    dead.channel = 0;
    dead.rank = 1;
    dead.device = 6;
    dead.scope = FaultScope::Device;
    dead.kind = FaultKind::Corrupt;
    mem.injectFault(dead);

    FunctionalFault stuck;
    stuck.channel = 1;
    stuck.rank = 0;
    stuck.device = 2;
    stuck.scope = FaultScope::Row;
    stuck.bank = 0;
    stuck.row = 3;
    stuck.kind = FaultKind::StuckAt1;
    mem.injectFault(stuck);
    return mem;
}

TEST(ScrubDeterminism, ParallelReportsMatchSerialAtEveryThreadCount)
{
    Scrubber scrubber;

    ArccMemory ref = scrubFixture();
    ScrubReport boot_ref = scrubber.bootScrub(ref);
    ScrubReport scrub_ref = scrubber.scrub(ref);

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        ArccMemory mem = scrubFixture();

        EXPECT_EQ(scrubber.bootScrubParallel(mem, &engine), boot_ref);
        EXPECT_EQ(scrubber.scrubParallel(mem, &engine), scrub_ref);

        // End state matches too: page modes and (batched-granularity)
        // stats are pure functions of the configuration.
        EXPECT_EQ(mem.pageTable().count(PageMode::Relaxed),
                  ref.pageTable().count(PageMode::Relaxed));
        EXPECT_EQ(mem.pageTable().count(PageMode::Upgraded),
                  ref.pageTable().count(PageMode::Upgraded));
        EXPECT_EQ(mem.stats().deviceReads, ref.stats().deviceReads);
        EXPECT_EQ(mem.stats().corrected, ref.stats().corrected);
        EXPECT_EQ(mem.stats().dues, ref.stats().dues);
    }
}

TEST(ScrubDeterminism, GoldenReportOnTheGlobalEngine)
{
    // Golden counters for scrubFixture() after a boot scrub, via the
    // ARCC_THREADS-sized global engine.
    Scrubber scrubber;
    ArccMemory mem = scrubFixture();
    scrubber.bootScrubParallel(mem);
    ScrubReport r = scrubber.scrubParallel(mem);

    EXPECT_EQ(r.linesScrubbed, 6080u);
    EXPECT_EQ(r.errorsCorrected, 8418u);
    EXPECT_EQ(r.duesFound, 0u);
    EXPECT_EQ(r.stuckAt1Found, 2112u);
    EXPECT_EQ(r.stuckAt0Found, 2048u);
    EXPECT_EQ(r.faultyPages.size(), 66u);
    EXPECT_EQ(r.pagesUpgraded, 0u); // boot already upgraded them.
    EXPECT_EQ(r.pagesRelaxed, 0u);
}

TEST(ScrubDeterminism, ParallelScrubHealsAndUpgradesLikeSerial)
{
    // Functional outcome, not just counters: data survives and the
    // faulty rank's pages end up upgraded.
    SimEngine engine(SimEngine::Options{7});
    ArccMemory mem = scrubFixture();
    Scrubber scrubber;
    scrubber.bootScrubParallel(mem, &engine);

    EXPECT_NEAR(mem.pageTable().upgradedFraction(), 0.5, 0.05);
    for (std::uint64_t addr : {std::uint64_t{0}, kPageBytes * 100}) {
        ReadResult r = mem.read(addr);
        EXPECT_NE(r.status, DecodeStatus::Detected);
    }
}

// --- mix simulation batch ----------------------------------------------

std::vector<MixJob>
mixJobs()
{
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 20000; // keep the test quick.
    cfg.seed = 20130223;

    std::vector<MixJob> jobs;
    jobs.push_back({table73Mixes()[0], cfg, {}});
    jobs.push_back({table73Mixes()[1], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Lane, cfg.mem)});
    jobs.push_back({table73Mixes()[2], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Bank, cfg.mem)});
    jobs.push_back({table73Mixes()[3], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Column, cfg.mem)});
    return jobs;
}

TEST(MixBatchDeterminism, BitIdenticalAcrossThreadCounts)
{
    std::vector<MixJob> jobs = mixJobs();
    SimEngine ref_engine(SimEngine::Options{1});
    std::vector<SimResult> ref = simulateMixBatch(jobs, &ref_engine);
    ASSERT_EQ(ref.size(), jobs.size());

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        std::vector<SimResult> out = simulateMixBatch(jobs, &engine);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j) {
            SCOPED_TRACE("job " + std::to_string(j));
            EXPECT_EQ(out[j].ipcSum, ref[j].ipcSum);
            EXPECT_EQ(out[j].avgPowerMw, ref[j].avgPowerMw);
            EXPECT_EQ(out[j].elapsedNs, ref[j].elapsedNs);
            EXPECT_EQ(out[j].memReads, ref[j].memReads);
            EXPECT_EQ(out[j].memWrites, ref[j].memWrites);
            EXPECT_EQ(out[j].llcStats.misses, ref[j].llcStats.misses);
        }
    }
}

// --- channel-sharded system simulator ----------------------------------

/** Exact (bit-identical) equality of two whole-run outcomes. */
void
expectEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.ipcSum, b.ipcSum);
    EXPECT_EQ(a.elapsedNs, b.elapsedNs);
    EXPECT_EQ(a.avgPowerMw, b.avgPowerMw);
    EXPECT_EQ(a.power.dynamicNj, b.power.dynamicNj);
    EXPECT_EQ(a.power.backgroundNj, b.power.backgroundNj);
    EXPECT_EQ(a.power.refreshNj, b.power.refreshNj);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.scrubReads, b.scrubReads);
    EXPECT_EQ(a.scrubWrites, b.scrubWrites);
    EXPECT_EQ(a.llcStats.misses, b.llcStats.misses);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].benchmark, b.cores[i].benchmark);
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].instrs, b.cores[i].instrs);
        EXPECT_EQ(a.cores[i].llcAccesses, b.cores[i].llcAccesses);
        EXPECT_EQ(a.cores[i].llcMisses, b.cores[i].llcMisses);
    }
}

/**
 * One simulateMix run through the channel-sharded back-end: an
 * upgraded-page scenario so paired traffic exercises the lockstep
 * path, optionally with background scrubbing interleaved (period
 * compressed so many sweep visits land inside the short run).
 */
SimResult
runStreamSim(SimEngine *engine, bool scrub)
{
    SystemConfig cfg;
    cfg.mem = arccConfig();
    // Mix9 at this budget produces dirty writebacks too, so the
    // writeback emission path is inside the determinism contract.
    cfg.instrsPerCore = 150000;
    cfg.seed = 20130223;
    if (scrub) {
        cfg.backgroundScrub.enabled = true;
        cfg.backgroundScrub.periodHours = 0.01;
    }
    auto oracle = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Device, cfg.mem);
    return simulateMix(table73Mixes()[8], cfg, oracle, engine);
}

TEST(StreamSimDeterminism, BitIdenticalAcrossThreadCounts)
{
    for (bool scrub : {false, true}) {
        SCOPED_TRACE(scrub ? "background scrub" : "traffic only");
        SimEngine ref_engine(SimEngine::Options{1});
        SimResult ref = runStreamSim(&ref_engine, scrub);
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            SimEngine engine(SimEngine::Options{threads});
            expectEqual(runStreamSim(&engine, scrub), ref);
        }
    }
}

TEST(StreamSimDeterminism, GoldenCountersOnTheGlobalEngine)
{
    // Golden counters for runStreamSim through the
    // ARCC_THREADS-sized global engine: CI runs this at 1 and 4
    // threads and both must reproduce these numbers.  The counters
    // are integers (exact at any thread count by the shard-reduce
    // contract); ipcSum is checked as a band so the golden stays
    // robust to FP-contraction differences across toolchains.
    SimResult r = runStreamSim(nullptr, /*scrub=*/true);
    EXPECT_EQ(r.memReads, 12463u);
    EXPECT_EQ(r.memWrites, 67u);
    EXPECT_EQ(r.llcStats.misses, 8635u);
    EXPECT_EQ(r.scrubReads, 1620u);
    EXPECT_EQ(r.scrubWrites, 1620u);
    EXPECT_NEAR(r.ipcSum, 1.4397, 0.05);
}

TEST(StreamSimDeterminism, ScrubPerturbationIsDeterministicToo)
{
    // The scrub-vs-clean IPC delta itself must be reproducible: the
    // two runs differ only in injected scrub traffic, so the delta is
    // a pure function of the configuration at any thread count.
    SimEngine a(SimEngine::Options{2});
    SimEngine b(SimEngine::Options{7});
    double delta_a = runStreamSim(&a, false).ipcSum -
                     runStreamSim(&a, true).ipcSum;
    double delta_b = runStreamSim(&b, false).ipcSum -
                     runStreamSim(&b, true).ipcSum;
    EXPECT_EQ(delta_a, delta_b);
    EXPECT_NE(delta_a, 0.0) << "scrub traffic must perturb the IPC";
    // (The *direction* of the perturbation under heavier scrub load
    // is asserted with margin in test_system_sim.cc; near-threshold
    // deltas may sit inside the latency fixed point's tolerance.)
}

// --- trace-driven simulateStreams at 4 and 8 channels -------------------

/** RAII deleter for the captured per-core trace files. */
struct TempFiles
{
    ~TempFiles()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
    std::vector<std::string> paths;
};

/**
 * The trace-driven multi-channel fixture: capture the Mix9 streams
 * once into binary trace files (pure function of the seed), then
 * replay them through simulateStreams on an `channels`-wide ARCC
 * configuration.  At 4 channels a Device-fault oracle keeps paired
 * traffic in play (2 pairable shard groups); at 8 channels the clean
 * oracle shards per channel -- the widest fan in the tree (8 shards).
 */
SystemConfig
traceSimConfig(int channels)
{
    SystemConfig cfg;
    cfg.mem = withChannels(arccConfig(), channels);
    cfg.instrsPerCore = 100000;
    cfg.seed = 20130223;
    return cfg;
}

void
captureTraceFiles(const SystemConfig &cfg, const WorkloadMix &mix,
                  TempFiles &files)
{
    AddressMap map(cfg.mem, cfg.mapPolicy);
    for (int i = 0; i < cfg.cores; ++i) {
        files.paths.push_back(
            (std::filesystem::temp_directory_path() /
             ("arcc_test_determinism." + std::to_string(::getpid()) +
              "." + std::to_string(i) + ".bin"))
                .string());
        captureSyntheticTrace(mix.benchmarks[i], map.capacity(), i,
                              mixCoreSeed(cfg.seed, i),
                              cfg.instrsPerCore, files.paths.back());
    }
}

SimResult
runTraceSim(SimEngine *engine, const SystemConfig &cfg,
            const WorkloadMix &mix, const TempFiles &files)
{
    std::vector<StreamSpec> streams;
    for (int i = 0; i < cfg.cores; ++i)
        streams.push_back(traceStreamSpec(
            files.paths[i],
            benchmarkProfile(mix.benchmarks[i]).baseIpc,
            /*chunkRecords=*/512));
    PageUpgradeOracle oracle;
    if (cfg.mem.channels == 4)
        oracle = PageUpgradeOracle::forScenario(
            PageUpgradeOracle::Scenario::Device, cfg.mem);
    return simulateStreams(std::move(streams), cfg, oracle, engine);
}

class TraceSimDeterminism : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceSimDeterminism, BitIdenticalAcrossThreadCounts)
{
    const int channels = GetParam();
    SystemConfig cfg = traceSimConfig(channels);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);

    // The shard fan this run exercises: one shard per pairable group
    // at 4 channels, one per channel at 8.
    AddressMap map(cfg.mem, cfg.mapPolicy);
    ChannelShardPlan plan(map, /*pairable=*/channels == 4);
    EXPECT_EQ(plan.groups(),
              channels == 4 ? 2u : 8u);

    SimEngine ref_engine(SimEngine::Options{1});
    SimResult ref = runTraceSim(&ref_engine, cfg, mix, files);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        expectEqual(runTraceSim(&engine, cfg, mix, files), ref);
    }
    // Each captured trace covers the budget exactly: one lap.
    for (const CoreResult &core : ref.cores)
        EXPECT_EQ(core.traceLaps, 1u);
}

INSTANTIATE_TEST_SUITE_P(FourAndEightChannels, TraceSimDeterminism,
                         ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return std::to_string(info.param) +
                                    "ch";
                         });

TEST(TraceSimDeterminism8Ch, GoldenCountersOnTheGlobalEngine)
{
    // Golden counters for the 8-channel trace replay through the
    // ARCC_THREADS-sized global engine: CI runs this at 1 and 4
    // threads and both must reproduce these numbers.  Integer
    // counters are exact by the shard-reduce contract; ipcSum is a
    // band (FP contraction varies across toolchains).
    SystemConfig cfg = traceSimConfig(8);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);
    SimResult r = runTraceSim(nullptr, cfg, mix, files);

    EXPECT_EQ(r.memReads, 6471u);
    EXPECT_EQ(r.memWrites, 0u);
    EXPECT_EQ(r.llcStats.misses, 6471u);
    EXPECT_NEAR(r.ipcSum, 1.6158, 0.05);
}

TEST(TraceSimDeterminism4Ch, GoldenCountersOnTheGlobalEngine)
{
    // As above at 4 channels with the Device-fault oracle: paired
    // traffic crosses the {2k, 2k+1} shard groups.
    SystemConfig cfg = traceSimConfig(4);
    const WorkloadMix &mix = table73Mixes()[8];
    TempFiles files;
    captureTraceFiles(cfg, mix, files);
    SimResult r = runTraceSim(nullptr, cfg, mix, files);

    // memReads > llcMisses: the Device oracle upgrades half the
    // pages, and each upgraded miss fetches both 64B sub-lines.
    EXPECT_EQ(r.memReads, 8388u);
    EXPECT_EQ(r.memWrites, 2u);
    EXPECT_EQ(r.llcStats.misses, 5788u);
    EXPECT_NEAR(r.ipcSum, 1.6737, 0.05);
}

// --- fleet-scale campaign driver ---------------------------------------

/**
 * A fleet small enough for a sub-second test but wide enough that the
 * 7-executor engine gets several shards per epoch (2048 trials / 64
 * per shard = 32 shards across 8 epochs).
 */
CampaignSpec
campaignSpec()
{
    CampaignSpec spec;
    spec.channels = 2048;
    spec.epochTrials = 256;
    spec.shardTrials = 64;
    spec.seed = 20130223;
    return spec;
}

void
expectEqual(const CampaignAggregate &a, const CampaignAggregate &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.faultsSampled, b.faultsSampled);
    EXPECT_EQ(a.trialsWithFault, b.trialsWithFault);
    EXPECT_EQ(a.sdcCandidates, b.sdcCandidates);
    EXPECT_EQ(a.dueCandidates, b.dueCandidates);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(CampaignDeterminism, BitIdenticalAcrossThreadCounts)
{
    const CampaignSpec spec = campaignSpec();
    SimEngine ref(SimEngine::Options{1});
    CampaignRunResult serial = CampaignDriver(spec, &ref).run();
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SimEngine engine(SimEngine::Options{threads});
        CampaignRunResult r = CampaignDriver(spec, &engine).run();
        expectEqual(r.aggregate, serial.aggregate);
        EXPECT_EQ(r.digest(spec), serial.digest(spec));
    }
}

TEST(CampaignDeterminism, GoldenDigestOnTheGlobalEngine)
{
    // Golden campaign digest for the campaignSpec() fleet.  The
    // global engine's size comes from ARCC_THREADS: CI runs this at
    // 1 and 4 threads and both must reproduce the digest bit for bit.
    const CampaignSpec spec = campaignSpec();
    CampaignRunResult r = CampaignDriver(spec).run();
    EXPECT_EQ(r.aggregate.trials, 2048u);
    EXPECT_EQ(r.digest(spec), 0xa0c045902c858d77ULL);
}

TEST(CampaignDeterminism, ResumeSplitsAreBitIdenticalAcrossThreads)
{
    // Interrupt after 3 epochs on one engine, resume on an engine of
    // every sweep width: the stitched digest must equal the
    // uninterrupted one regardless of which widths ran which half.
    const CampaignSpec spec = campaignSpec();
    SimEngine ref(SimEngine::Options{1});
    const std::uint64_t golden =
        CampaignDriver(spec, &ref).run().digest(spec);

    for (int threads : kThreadCounts) {
        SCOPED_TRACE("resume threads=" + std::to_string(threads));
        std::string path =
            "determinism_campaign_" + std::to_string(threads) +
            "_" + std::to_string(::getpid()) + ".ckpt";
        TempFiles cleanup;
        cleanup.paths.push_back(path);

        CampaignRunOptions first;
        first.checkpointPath = path;
        first.maxEpochs = 3;
        CampaignRunResult head = CampaignDriver(spec, &ref).run(first);
        EXPECT_TRUE(head.interrupted);

        SimEngine engine(SimEngine::Options{threads});
        CampaignRunOptions rest;
        rest.checkpointPath = path;
        CampaignRunResult r = CampaignDriver(spec, &engine).run(rest);
        EXPECT_EQ(r.resumedFromTrial, 3u * spec.epochTrials);
        EXPECT_FALSE(r.interrupted);
        EXPECT_EQ(r.digest(spec), golden);
    }
}

TEST(MixBatchDeterminism, GlobalEngineMatchesSequentialReference)
{
    // Through the ARCC_THREADS-sized global engine (the path CI pins
    // to 1 and 4 threads): the batch must equal per-job simulateMix.
    std::vector<MixJob> jobs = mixJobs();
    std::vector<SimResult> batch = simulateMixBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        SimResult ref =
            simulateMix(jobs[j].mix, jobs[j].config, jobs[j].oracle);
        EXPECT_EQ(batch[j].ipcSum, ref.ipcSum);
        EXPECT_EQ(batch[j].memReads, ref.memReads);
        EXPECT_EQ(batch[j].memWrites, ref.memWrites);
    }
}

// --- the Figure 7 grid, pinned bit for bit -------------------------------

/** Fold one value's 64 bits into a digest. */
std::uint64_t
foldBits(std::uint64_t h, std::uint64_t v)
{
    return Rng::mix64(h ^ v);
}

std::uint64_t
foldBits(std::uint64_t h, double v)
{
    return foldBits(h, std::bit_cast<std::uint64_t>(v));
}

/** Every SimResult field, doubles by their bit patterns. */
std::uint64_t
simResultBits(std::uint64_t h, const SimResult &r)
{
    h = foldBits(h, r.ipcSum);
    h = foldBits(h, r.elapsedNs);
    h = foldBits(h, r.power.dynamicNj);
    h = foldBits(h, r.power.backgroundNj);
    h = foldBits(h, r.power.refreshNj);
    h = foldBits(h, r.avgPowerMw);
    h = foldBits(h, r.llcStats.hits);
    h = foldBits(h, r.llcStats.misses);
    h = foldBits(h, r.llcStats.evictions);
    h = foldBits(h, r.llcStats.pairedFills);
    h = foldBits(h, r.llcStats.pairedWritebacks);
    h = foldBits(h, r.memReads);
    h = foldBits(h, r.memWrites);
    h = foldBits(h, r.scrubReads);
    h = foldBits(h, r.scrubWrites);
    h = foldBits(h, static_cast<std::uint64_t>(r.cores.size()));
    for (const CoreResult &c : r.cores) {
        for (char ch : c.benchmark)
            h = foldBits(h, static_cast<std::uint64_t>(ch));
        h = foldBits(h, c.instrs);
        h = foldBits(h, c.ipc);
        h = foldBits(h, c.llcAccesses);
        h = foldBits(h, c.llcMisses);
        h = foldBits(h, c.traceLaps);
    }
    return h;
}

/**
 * A small Figure 7 grid: three mixes x the six sim_grid columns
 * (baseline, ARCC clean, ARCC under each Table 7.4 fault), plus one
 * job each on the paths the grid does not take -- the Base map's
 * same-channel pairs under a Lane fault, the sectored LLC, and
 * background scrubbing.
 */
std::vector<MixJob>
gridJobs()
{
    using Scenario = PageUpgradeOracle::Scenario;
    SystemConfig cfg;
    cfg.instrsPerCore = 20000;
    cfg.seed = 20130223;
    const Scenario faults[] = {Scenario::Lane, Scenario::Device,
                               Scenario::Bank, Scenario::Column};
    std::vector<MixJob> jobs;
    for (int m : {0, 6, 8}) {
        const WorkloadMix &mix = table73Mixes()[m];
        cfg.mem = baselineConfig();
        jobs.push_back({mix, cfg, {}});
        cfg.mem = arccConfig();
        jobs.push_back({mix, cfg, {}});
        for (Scenario s : faults)
            jobs.push_back(
                {mix, cfg, PageUpgradeOracle::forScenario(s, cfg.mem)});
    }
    cfg.mem = arccConfig();
    const WorkloadMix &mix9 = table73Mixes()[8];
    SystemConfig base = cfg;
    base.mapPolicy = MapPolicy::Base;
    jobs.push_back({mix9, base,
                    PageUpgradeOracle::forScenario(Scenario::Lane,
                                                   base.mem)});
    SystemConfig sectored = cfg;
    sectored.sectoredLlc = true;
    jobs.push_back({mix9, sectored,
                    PageUpgradeOracle::forScenario(Scenario::Device,
                                                   sectored.mem)});
    SystemConfig scrub = cfg;
    scrub.backgroundScrub.enabled = true;
    scrub.backgroundScrub.periodHours = 0.01;
    jobs.push_back({mix9, scrub,
                    PageUpgradeOracle::forScenario(Scenario::Device,
                                                   scrub.mem)});
    return jobs;
}

TEST(SimGridDeterminism, GoldenDigestOnTheGlobalEngine)
{
    // Every field of every result, doubles included, through the
    // ARCC_THREADS-sized global engine: a change to the simulator
    // that moves any output by one ulp fails here.  x86-64 without
    // -march emits no FMA, so the doubles are the same under gcc and
    // clang.
    const std::vector<SimResult> results = simulateMixBatch(gridJobs());
    ASSERT_EQ(results.size(), 21u);
    std::uint64_t h = 0;
    for (const SimResult &r : results)
        h = simResultBits(h, r);
    EXPECT_EQ(h, 0x6bbd6b1e1d9b0b1dULL);
}

} // namespace
} // namespace arcc
