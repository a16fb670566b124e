/**
 * @file
 * Workload `sim_grid`: the Figure 7.1-7.3 grid -- all 12 Table 7.3
 * mixes x {baseline, ARCC clean, ARCC under each Table 7.4 scenario}
 * -- submitted as one simulateMixBatch per closed-loop iteration.
 * The cpu / cache / dram / engine layers do nearly all the work;
 * campaign, service and ecc do none.
 */

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "cpu/system_sim.hh"
#include "dram/address_map.hh"
#include "dram/channel_shard.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "harness.hh"

namespace perfbench
{

namespace
{

using Scenario = arcc::PageUpgradeOracle::Scenario;

/** Per-core instruction budget of every grid job. */
constexpr std::uint64_t kInstrsPerCore = 100'000;
/** Grid columns per mix: baseline, ARCC clean, 4 fault scenarios. */
constexpr std::size_t kColumns = 6;

struct Drawn
{
    std::uint64_t pos; // instructions retired by the core so far
    int core;
    std::uint64_t addr;
    bool write;
};

struct Request
{
    double timeNs;
    std::uint64_t addr;
    bool write;
    bool paired;
    arcc::DramCoord a;
    arcc::DramCoord b;
};

/** Host time and work counts of the replayed layers. */
struct SimLayerTotals
{
    double recordS = 0.0;
    double cacheS = 0.0;
    double decodeS = 0.0;
    double dramS = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t decodes = 0;
    std::uint64_t requests = 0;
};

/**
 * Layer-by-layer replay of one job through the library's public
 * per-layer entry points: the cores' access streams are drawn from
 * their StreamSpec generators (cpu), run through a PairedTagLlc with
 * the job's upgrade oracle (cache), and the misses and writebacks are
 * decoded by the AddressMap and issued to one ChannelSet per
 * ChannelShardPlan group (dram).  Not a second simulator: arrival
 * times are the instruction position at one instruction per cycle, so
 * it measures how much host work each layer does for the job, not the
 * job's simulated timing.  Spans carry `jobId`.
 */
void
replaySimLayers(std::vector<arcc::StreamSpec> streams,
                const arcc::SystemConfig &config,
                const arcc::PageUpgradeOracle &oracle,
                SimLayerTotals &totals, Tracer &tracer,
                std::uint64_t jobId)
{
    // cpu: draw every core's stream for the instruction budget.
    std::vector<Drawn> drawn;
    double t0 = now();
    {
        Scope span(tracer, "cpu.record", jobId);
        for (std::size_t c = 0; c < streams.size(); ++c) {
            std::uint64_t pos = 0;
            while (pos < config.instrsPerCore) {
                const arcc::CoreWorkload::Access a = streams[c].next();
                pos += a.instrGap;
                drawn.push_back(
                    Drawn{pos, static_cast<int>(c), a.addr, a.isWrite});
            }
        }
    }
    double t1 = now();
    totals.recordS += t1 - t0;
    totals.accesses += drawn.size();

    // Interleave the cores by retirement position (benchmark glue,
    // deliberately outside every layer span).
    std::sort(drawn.begin(), drawn.end(),
              [](const Drawn &x, const Drawn &y) {
                  return x.pos != y.pos ? x.pos < y.pos : x.core < y.core;
              });

    // cache: the paired-tag LLC with the job's upgrade oracle.
    std::vector<Request> reqs;
    t0 = now();
    {
        Scope span(tracer, "cache.access", jobId);
        arcc::PairedTagLlc llc(config.llc);
        for (const Drawn &d : drawn) {
            const bool up = oracle.upgraded(d.addr);
            const arcc::LlcOutcome out = llc.access(d.addr, d.write, up);
            const double t = static_cast<double>(d.pos) / config.cpuGhz;
            if (!out.hit)
                reqs.push_back(Request{t, d.addr, false, up, {}, {}});
            for (const arcc::Writeback &wb : out.writebacks)
                reqs.push_back(
                    Request{t, wb.addr, true, wb.paired, {}, {}});
            totals.writebacks += out.writebacks.size();
        }
        totals.cacheAccesses += llc.stats().hits + llc.stats().misses;
        totals.cacheMisses += llc.stats().misses;
    }
    t1 = now();
    totals.cacheS += t1 - t0;

    // dram: address decode, then the channel timing model per group.
    const arcc::AddressMap map(config.mem, config.mapPolicy);
    t0 = now();
    {
        Scope span(tracer, "dram.decode", jobId);
        for (Request &r : reqs) {
            if (r.paired) {
                const std::uint64_t base = r.addr & ~std::uint64_t{127};
                r.a = map.decode(base);
                r.b = map.decode(base + 64);
                totals.decodes += 2;
            } else {
                r.a = map.decode(r.addr);
                totals.decodes += 1;
            }
        }
    }
    t1 = now();
    totals.decodeS += t1 - t0;

    t0 = now();
    {
        Scope span(tracer, "dram.access", jobId);
        const arcc::ChannelShardPlan plan(map, oracle.mayUpgrade());
        std::vector<std::unique_ptr<arcc::ChannelSet>> sets;
        for (std::size_t g = 0; g < plan.groups(); ++g)
            sets.push_back(std::make_unique<arcc::ChannelSet>(
                config.mem, config.ctrl, plan.group(g)));
        double end = 0.0;
        for (const Request &r : reqs) {
            arcc::ChannelSet &set = *sets[plan.groupOf(r.a.channel)];
            end = std::max(end, r.paired ? set.accessPaired(r.timeNs, r.a,
                                                            r.b, r.write)
                                         : set.access(r.timeNs, r.a,
                                                      r.write));
        }
        for (auto &set : sets)
            set->finalize(end);
    }
    t1 = now();
    totals.dramS += t1 - t0;
    totals.requests += reqs.size();
}

std::vector<arcc::MixJob>
buildGrid(std::uint64_t seed)
{
    const Scenario faults[] = {Scenario::Lane, Scenario::Device,
                               Scenario::Bank, Scenario::Column};
    std::vector<arcc::MixJob> jobs;
    for (const arcc::WorkloadMix &mix : arcc::table73Mixes()) {
        for (std::size_t col = 0; col < kColumns; ++col) {
            arcc::MixJob job;
            job.mix = mix;
            job.config.mem =
                col == 0 ? arcc::baselineConfig() : arcc::arccConfig();
            job.config.instrsPerCore = kInstrsPerCore;
            job.config.seed = seed;
            if (col >= 2)
                job.oracle = arcc::PageUpgradeOracle::forScenario(
                    faults[col - 2], job.config.mem);
            jobs.push_back(job);
        }
    }
    return jobs;
}

std::uint64_t
gridDigest(const std::vector<arcc::SimResult> &results)
{
    std::uint64_t h = 0x47524944ULL;
    for (const arcc::SimResult &r : results)
        h = fold(h, simDigest(r));
    return h;
}

double
simulatedMinstr(const std::vector<arcc::SimResult> &results)
{
    std::uint64_t instrs = 0;
    for (const arcc::SimResult &r : results)
        for (const arcc::CoreResult &c : r.cores)
            instrs += c.instrs;
    return static_cast<double>(instrs) / 1e6;
}

struct LoopResult
{
    std::vector<double> batchS;
    double seconds = 0.0;
    double minstr = 0.0;

    /** Simulated Minstr per host second at the median batch time. */
    double
    rate() const
    {
        return minstr / static_cast<double>(batchS.size()) / median(batchS);
    }
};

/** Closed loop: one batch after another until `seconds` elapse. */
LoopResult
timedLoop(const std::vector<arcc::MixJob> &jobs, arcc::SimEngine &engine,
          Tracer &tracer, double seconds, std::uint64_t refDigest,
          Tally &tally)
{
    LoopResult out;
    const double start = now();
    do {
        const double t0 = now();
        std::vector<arcc::SimResult> results;
        {
            Scope span(tracer, "engine.batch", out.batchS.size());
            results = arcc::simulateMixBatch(jobs, &engine);
        }
        out.batchS.push_back(now() - t0);
        tally.ops(jobs.size());
        tally.check(gridDigest(results) == refDigest,
                    "sim_grid batch " + std::to_string(out.batchS.size()) +
                        " digest equals the set-up batch digest");
        out.minstr += simulatedMinstr(results);
    } while (now() - start < seconds);
    out.seconds = now() - start;
    return out;
}

} // namespace

void
runSimGrid(Report &rep)
{
    const RunArgs &args = rep.args();
    Tally &tally = rep.tally();
    arcc::SimEngine engine(arcc::SimEngine::Options{args.threads});
    arcc::SimEngine serialEngine(arcc::SimEngine::Options{1});

    // Set-up (five times, median reported): build the grid and run
    // one warm-up batch, which also yields the reference results.
    std::vector<arcc::MixJob> jobs;
    std::vector<arcc::SimResult> reference;
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        const double t0 = now();
        jobs = buildGrid(args.seed);
        reference = arcc::simulateMixBatch(jobs, &engine);
        setups.push_back(now() - t0);
    }
    const std::uint64_t refDigest = gridDigest(reference);
    rep.note("sim_grid: %zu jobs, %" PRIu64 " instrs/core, digest "
             "%016" PRIx64,
             jobs.size(), kInstrsPerCore, refDigest);

    double traceStart = 0.0;
    const LoopResult loop = measuredLoop(
        rep,
        [&](Tracer &t, double seconds, int) {
            return timedLoop(jobs, engine, t, seconds, refDigest, tally);
        },
        "Minstr/s", traceStart);

    // Checks: one batch on the widest engine, and every job run alone
    // through simulateMix on a 1-thread engine, must reproduce the
    // measured batch bit for bit.
    Tracer &tracer = rep.tracer();
    {
        arcc::SimEngine wide(arcc::SimEngine::Options{args.maxThreads});
        std::vector<arcc::SimResult> wideResults;
        {
            Scope span(tracer, "engine.wide_batch");
            wideResults = arcc::simulateMixBatch(jobs, &wide);
        }
        tally.ops(jobs.size());
        tally.check(gridDigest(wideResults) == refDigest,
                    "sim_grid digest identical at engine threads " +
                        std::to_string(engine.threads()) + " and " +
                        std::to_string(wide.threads()));
    }
    std::vector<arcc::SimResult> serial;
    std::vector<double> jobS;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const double t0 = now();
        {
            Scope span(tracer, "engine.serial_job", j);
            serial.push_back(arcc::simulateMix(jobs[j].mix, jobs[j].config,
                                               jobs[j].oracle,
                                               &serialEngine));
        }
        jobS.push_back(now() - t0);
        tally.ops(1);
        tally.check(simDigest(serial.back()) == simDigest(reference[j]),
                    "sim_grid job " + std::to_string(j) +
                        ": batch result equals serial simulateMix");
    }
    tally.check(gridDigest(serial) == refDigest,
                "sim_grid digest identical at engine threads 1 and " +
                    std::to_string(engine.threads()));

    // The model's headline numbers, beside the paper's.
    double saving = 0.0;
    double gain = 0.0;
    const std::size_t mixes = jobs.size() / kColumns;
    for (std::size_t m = 0; m < mixes; ++m) {
        const arcc::SimResult &base = reference[m * kColumns];
        const arcc::SimResult &arcc = reference[m * kColumns + 1];
        saving += 100.0 * (1.0 - arcc.avgPowerMw / base.avgPowerMw);
        gain += 100.0 * (arcc.ipcSum / base.ipcSum - 1.0);
    }
    saving /= static_cast<double>(mixes);
    gain /= static_cast<double>(mixes);
    rep.note("model: power saving %.2f%% (paper 36.7%%, diff %+.2f pts), "
             "IPC gain %.2f%% (paper 5.9%%, diff %+.2f pts); simulated "
             "values, otherwise unvalidated against hardware; the latency "
             "fixed point's convergence is not yet reported",
             saving, saving - 36.7, gain, gain - 5.9);

    const Summary batch = summarize(loop.batchS);
    rep.note("sim_grid: sim_minstr_per_s=%.2f over %zu batches in %.3f s; "
             "batch %s",
             loop.rate(), loop.batchS.size(), loop.seconds,
             describe(batch, 1e3, "ms").c_str());

    rep.set("setup_s", median(setups));
    rep.set("work_per_s", loop.rate());
    rep.set("op_p50_ms", batch.p50 * 1e3);
    rep.set("op_p90_ms", batch.p90 * 1e3);

    if (!args.trace)
        return;

    double serialS = 0.0;
    for (double s : jobS)
        serialS += s;
    const Summary job = summarize(jobS);
    rep.set("engine.batch_s", batch.p50);
    rep.set("engine.serial_s", serialS);
    rep.set("engine.parallel_efficiency",
            serialS / (batch.p50 * engine.threads()));
    rep.set("engine.job_p50_ms", job.p50 * 1e3);
    rep.set("engine.job_max_ms", job.max * 1e3);
    rep.set("model.power_saving_pct", saving);
    rep.set("model.ipc_gain_pct", gain);

    // Fixed-point cost: the same jobs at one latency pass.
    double onePassS = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        arcc::SystemConfig cfg = jobs[j].config;
        cfg.latencyPasses = 1;
        const double t0 = now();
        Scope span(tracer, "engine.single_pass_job", j);
        arcc::simulateMix(jobs[j].mix, cfg, jobs[j].oracle, &serialEngine);
        onePassS += now() - t0;
    }
    rep.set("cpu.pass_ratio", serialS / onePassS);

    SimLayerTotals totals;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const arcc::SystemConfig &cfg = jobs[j].config;
        const std::uint64_t memBytes =
            arcc::AddressMap(cfg.mem, cfg.mapPolicy).capacity();
        std::vector<arcc::StreamSpec> streams;
        for (int c = 0; c < cfg.cores; ++c)
            streams.push_back(arcc::syntheticStreamSpec(
                jobs[j].mix.benchmarks[c], memBytes, c,
                arcc::mixCoreSeed(cfg.seed, c)));
        replaySimLayers(std::move(streams), cfg, jobs[j].oracle, totals,
                        tracer, j);
    }
    rep.set("cpu.record_s", totals.recordS);
    rep.set("cpu.accesses", static_cast<double>(totals.accesses));
    rep.set("cache.access_s", totals.cacheS);
    rep.set("cache.accesses", static_cast<double>(totals.cacheAccesses));
    rep.set("cache.miss_ratio",
            static_cast<double>(totals.cacheMisses) /
                static_cast<double>(totals.cacheAccesses));
    rep.set("cache.writebacks", static_cast<double>(totals.writebacks));
    rep.set("dram.decode_s", totals.decodeS);
    rep.set("dram.decodes", static_cast<double>(totals.decodes));
    rep.set("dram.access_s", totals.dramS);
    rep.set("dram.requests", static_cast<double>(totals.requests));

    rep.analyzeTrace(traceStart, now());
}

} // namespace perfbench
