/**
 * @file
 * Workload `campaign`: one checkpointed fleet campaign
 * (CampaignDriver::run with a checkpoint log in the run's scratch
 * directory), repeated closed-loop.  The faults / reliability /
 * campaign layers and the per-epoch fsync do all the work; the
 * system simulator does none.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/units.hh"
#include "engine/sim_engine.hh"
#include "harness.hh"
#include "reliability/sdc_model.hh"

namespace perfbench
{

namespace
{

/** Fleet size and checkpoint granularity of the measured campaign.
 *  An epoch spans many scheduler time slices, so one preempted
 *  thread moves an epoch's time little and the tail stays near the
 *  median on a shared host. */
constexpr std::uint64_t kChannels = 1ULL << 20;
constexpr std::uint64_t kEpochTrials = 32768;
/** Trials the outside fault replay and the 1-thread kernel cover. */
constexpr std::uint64_t kReplayTrials = 1ULL << 15;
/** Trials per replay phase chunk (one span per phase per chunk). */
constexpr std::uint64_t kReplayChunk = 1024;
/** Epochs of the set-up warm-up. */
constexpr std::uint64_t kWarmupEpochs = 2;
/** Workers of the split-and-merge check. */
constexpr std::uint32_t kWorkers = 4;

arcc::CampaignSpec
specFor(std::uint64_t seed)
{
    arcc::CampaignSpec spec;
    spec.channels = kChannels;
    spec.epochTrials = kEpochTrials;
    spec.seed = seed;
    return spec;
}

struct LoopResult
{
    std::vector<double> epochS;
    std::vector<double> runS;
    double seconds = 0.0;

    /** Checkpointed trials per host second at the median epoch time. */
    double
    rate() const
    {
        return static_cast<double>(kEpochTrials) / median(epochS);
    }
};

/** One checkpointed campaign (at most `maxEpochs` epochs when
 *  nonzero); epoch latencies come from CampaignDriver's between-epoch
 *  stop poll. */
std::uint64_t
checkpointedRun(const arcc::CampaignDriver &driver, const std::string &path,
                Tracer &tracer, std::uint64_t id, LoopResult &out,
                std::uint64_t maxEpochs = 0)
{
    std::remove(path.c_str());
    std::vector<double> polls;
    arcc::CampaignRunOptions options;
    options.checkpointPath = path;
    options.maxEpochs = maxEpochs;
    options.stopRequested = [&polls] {
        polls.push_back(now());
        return false;
    };
    const long span = tracer.begin("campaign.run", id);
    const double t0 = now();
    const arcc::CampaignRunResult result = driver.run(options);
    const double t1 = now();
    tracer.end(span);
    polls.push_back(t1);
    for (std::size_t e = 0; e + 1 < polls.size(); ++e) {
        out.epochS.push_back(polls[e + 1] - polls[e]);
        tracer.add("campaign.epoch", polls[e], polls[e + 1], e, span);
    }
    out.runS.push_back(t1 - t0);
    std::remove(path.c_str());
    return result.digest(driver.spec());
}

/** Closed loop of whole checkpointed campaigns; the first one sets
 *  `refDigest` when it is still 0 and every one must match it. */
LoopResult
timedLoop(const arcc::CampaignDriver &driver, const std::string &dir,
          Tracer &tracer, double seconds, std::uint64_t &refDigest,
          Tally &tally)
{
    LoopResult out;
    const double start = now();
    do {
        const std::size_t rep = out.runS.size();
        const std::size_t epochsBefore = out.epochS.size();
        const std::uint64_t digest = checkpointedRun(
            driver, dir + "/ckpt-" + std::to_string(rep) + ".log", tracer,
            rep, out);
        tally.ops(out.epochS.size() - epochsBefore);
        if (refDigest == 0)
            refDigest = digest;
        tally.check(digest == refDigest,
                    "campaign run " + std::to_string(rep) +
                        ": checkpointed digest equals the first run's");
    } while (now() - start < seconds);
    out.seconds = now() - start;
    return out;
}

/** What the outside replay of a trial slice measured. */
struct ReplayTotals
{
    double sampleS = 0.0;
    double footprintS = 0.0;
    double overlapS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t pairs = 0;
    std::uint64_t overlapping = 0;
};

/**
 * Trials [begin, end) of `spec` replayed outside CampaignDriver through
 * the faults and reliability layers' public calls, phase by phase
 * per chunk: lifetime sampling, footprint concretization plus the
 * affected-page tracker, and the pairwise overlap scan.  Draws come
 * from Rng::stream(seed, trial) in CampaignDriver's order, so the
 * aggregate must equal CampaignDriver::runTrials on the same slice.
 */
arcc::CampaignAggregate
replayTrials(const arcc::CampaignSpec &spec, std::uint64_t begin,
             std::uint64_t end, Tracer &tracer, ReplayTotals &totals)
{
    arcc::CampaignAggregate agg = arcc::CampaignAggregate::empty();
    const double hours = spec.years * arcc::kHoursPerYear;
    const int groups = spec.geom.totalDevices() / spec.devicesPerGroup;
    const arcc::FaultSampler sampler(spec.geom,
                                     spec.rates.scaled(spec.rateBoost));

    struct Trial
    {
        arcc::Rng rng;
        std::vector<arcc::FaultEvent> events;
        std::vector<arcc::ConcreteFault> faults;
        double fraction = 0.0;
    };
    std::vector<Trial> chunk;
    for (std::uint64_t lo = begin; lo < end; lo += kReplayChunk) {
        const std::uint64_t hi = std::min(end, lo + kReplayChunk);
        chunk.assign(hi - lo, Trial{arcc::Rng(0), {}, {}, 0.0});

        double t0 = now();
        {
            Scope span(tracer, "faults.sample", lo);
            for (std::uint64_t t = lo; t < hi; ++t) {
                Trial &tr = chunk[t - lo];
                tr.rng = arcc::Rng::stream(spec.seed, t);
                tr.events = sampler.sampleLifetime(hours, tr.rng);
                totals.events += tr.events.size();
            }
        }
        double t1 = now();
        totals.sampleS += t1 - t0;

        {
            Scope span(tracer, "faults.footprint", lo);
            for (Trial &tr : chunk) {
                arcc::AffectedTracker tracker(spec.geom);
                for (const arcc::FaultEvent &e : tr.events) {
                    arcc::ConcreteFault f;
                    f.timeHours = e.timeHours;
                    f.type = e.type;
                    f.group = static_cast<int>(tr.rng.below(groups));
                    f.device = static_cast<int>(
                        tr.rng.below(spec.devicesPerGroup));
                    f.bank = e.bank;
                    f.row = static_cast<int>(tr.rng.below(spec.rowsPerBank));
                    f.col = static_cast<int>(tr.rng.below(spec.colsPerBank));
                    tr.faults.push_back(f);
                    tracker.apply(e);
                }
                tr.fraction = tracker.fraction();
            }
        }
        t0 = now();
        totals.footprintS += t0 - t1;

        {
            Scope span(tracer, "reliability.overlap", lo);
            for (const Trial &tr : chunk) {
                const std::vector<arcc::ConcreteFault> &fs = tr.faults;
                for (std::size_t i = 0; i < fs.size(); ++i) {
                    const double detect =
                        (std::floor(fs[i].timeHours / spec.scrubHours) +
                         1.0) *
                        spec.scrubHours;
                    for (std::size_t j = i + 1; j < fs.size(); ++j) {
                        ++totals.pairs;
                        if (!arcc::faultsOverlap(fs[i], fs[j]))
                            continue;
                        ++totals.overlapping;
                        ++agg.dueCandidates;
                        if (fs[j].timeHours < detect)
                            ++agg.sdcCandidates;
                    }
                }
            }
        }
        t1 = now();
        totals.overlapS += t1 - t0;

        for (const Trial &tr : chunk) {
            ++agg.trials;
            agg.faultsSampled += tr.faults.size();
            if (!tr.faults.empty())
                ++agg.trialsWithFault;
            agg.affectedSum += tr.fraction;
            agg.affectedHist.add(tr.fraction);
            agg.faultHist.add(static_cast<double>(tr.faults.size()));
        }
    }
    return agg;
}

} // namespace

void
runCampaign(Report &rep)
{
    const RunArgs &args = rep.args();
    Tally &tally = rep.tally();
    arcc::SimEngine engine(arcc::SimEngine::Options{args.threads});
    const arcc::CampaignSpec spec = specFor(args.seed);
    const arcc::CampaignDriver driver(spec, &engine);

    // Set-up (five times, median reported): a checkpointed warm-up of
    // the campaign's first epochs in a fresh log, which warms the
    // engine and the scratch file system.
    Tracer untraced(false);
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        const double t0 = now();
        LoopResult warm;
        checkpointedRun(driver, args.workDir + "/setup.log", untraced, 0,
                        warm, kWarmupEpochs);
        setups.push_back(now() - t0);
    }
    std::uint64_t refDigest = 0;

    double traceStart = 0.0;
    const LoopResult loop = measuredLoop(
        rep,
        [&](Tracer &t, double seconds, int) {
            return timedLoop(driver, args.workDir, t, seconds, refDigest,
                             tally);
        },
        "trials/s", traceStart);
    Tracer &tracer = rep.tracer();
    rep.note("campaign: %" PRIu64 " channels, %" PRIu64
             " epochs of %" PRIu64 " trials, digest %016" PRIx64,
             spec.channels, spec.epochCount(), spec.epochTrials,
             refDigest);

    // Checks: the plain (uncheckpointed) run, the 4-worker split
    // merged back, and the outside replay of a trial slice.
    double t0 = now();
    arcc::CampaignRunResult plain;
    {
        Scope span(tracer, "campaign.plain");
        plain = driver.run();
    }
    const double plainS = now() - t0;
    tally.ops(spec.epochCount());
    tally.check(plain.digest(spec) == refDigest,
                "campaign: plain digest equals checkpointed digest");

    const arcc::WorkerPlan plan(spec, kWorkers);
    std::vector<arcc::CampaignWorkerSlice> slices;
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
        Scope span(tracer, "campaign.worker", w);
        slices.push_back(arcc::workerSlice(spec, plan, w,
                                           driver.runWorker(plan, w)));
    }
    t0 = now();
    arcc::CampaignRunResult merged;
    {
        Scope span(tracer, "campaign.merge");
        merged = arcc::mergeCampaigns(spec, std::move(slices));
    }
    const double mergeS = now() - t0;
    tally.check(merged.digest(spec) == refDigest,
                "campaign: 4-worker merged digest equals checkpointed "
                "digest");

    ReplayTotals replay;
    const arcc::CampaignAggregate outside =
        replayTrials(spec, 0, kReplayTrials, tracer, replay);
    t0 = now();
    arcc::CampaignAggregate kernel;
    {
        Scope span(tracer, "campaign.kernel");
        kernel = driver.runTrials(0, kReplayTrials);
    }
    const double kernelS = now() - t0;
    tally.check(outside.hash() == kernel.hash(),
                "campaign: outside fault replay equals runTrials on "
                "trials [0, " + std::to_string(kReplayTrials) + ")");

    const Summary epoch = summarize(loop.epochS);
    const double ckptS = median(loop.runS);
    rep.note("campaign: campaign_trials_per_s=%.0f over %zu runs in "
             "%.3f s; epoch %s",
             loop.rate(), loop.runS.size(), loop.seconds,
             describe(epoch, 1e3, "ms").c_str());
    rep.note("campaign: plain run %.3f s vs checkpointed %.3f s (median)",
             plainS, ckptS);

    rep.set("setup_s", median(setups));
    rep.set("work_per_s", loop.rate());
    rep.set("op_p50_ms", epoch.p50 * 1e3);
    rep.set("op_p90_ms", epoch.p90 * 1e3);

    if (!args.trace)
        return;

    rep.set("faults.sample_s", replay.sampleS);
    rep.set("faults.events", static_cast<double>(replay.events));
    rep.set("faults.footprint_s", replay.footprintS);
    rep.set("reliability.overlap_s", replay.overlapS);
    rep.set("reliability.pairs_scanned", static_cast<double>(replay.pairs));
    rep.set("reliability.overlap_ratio",
            replay.pairs ? static_cast<double>(replay.overlapping) /
                               static_cast<double>(replay.pairs)
                         : 0.0);
    rep.set("campaign.kernel_trials_per_s",
            static_cast<double>(kReplayTrials) / kernelS);
    rep.set("campaign.plain_s", plainS);
    rep.set("campaign.ckpt_s", ckptS);
    rep.set("campaign.ckpt_overhead", ckptS / plainS - 1.0);
    rep.set("campaign.merge_ms", mergeS * 1e3);

    // The checkpoint layer alone: serialize the final aggregate and
    // seal one epoch-shaped record per epoch into a fresh log.
    std::vector<std::uint8_t> payload;
    const int kSerializeReps = 1000;
    t0 = now();
    {
        Scope span(tracer, "campaign.serialize");
        for (int i = 0; i < kSerializeReps; ++i) {
            payload.assign(16, 0);
            plain.aggregate.serializeTo(payload);
        }
    }
    rep.set("campaign.serialize_us",
            (now() - t0) / kSerializeReps * 1e6);

    arcc::CheckpointIdentity identity;
    identity.configHash = spec.configHash();
    identity.seed = spec.seed;
    identity.endTrial = spec.channels;
    const std::string path = args.workDir + "/append.log";
    std::vector<double> appendS;
    {
        arcc::CheckpointWriter writer =
            arcc::CheckpointWriter::create(path, identity);
        for (std::uint64_t e = 0; e < spec.epochCount(); ++e) {
            const double a0 = now();
            Scope span(tracer, "campaign.append", e);
            writer.append(payload);
            appendS.push_back(now() - a0);
        }
    }
    std::remove(path.c_str());
    const Summary append = summarize(appendS);
    rep.set("campaign.append_p50_ms", append.p50 * 1e3);
    rep.set("campaign.append_max_ms", append.max * 1e3);
    rep.set("campaign.appends", static_cast<double>(append.n));
    rep.note("campaign: append %s", describe(append, 1e3, "ms").c_str());

    rep.analyzeTrace(traceStart, now());
}

} // namespace perfbench
