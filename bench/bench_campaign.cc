/**
 * @file
 * Campaign-driver bench: fleet trial throughput with and without the
 * sealed-record checkpoint log, the checkpoint overhead that implies,
 * and an in-process interrupt/resume equality check.
 *
 * The digest and every counter are pure functions of the spec -- CI
 * diffs the JSON across 1-vs-N-thread legs with the "threads" field
 * and the timing fields (trials_per_sec, ckpt_trials_per_sec,
 * ckpt_overhead_pct, workers_trials_per_sec) normalised; everything
 * else must be bit-identical.
 *
 * The workers leg runs the same fleet through a WorkerPlan split
 * (each worker slice sequentially in-process, then mergeCampaigns)
 * and asserts the merged digest equals the single-run digest -- the
 * scale-out exactness contract, measured rather than assumed.
 *
 * ARCC_BENCH_CAMPAIGN_CHANNELS overrides the fleet size (default
 * 8192 channel-lifetimes); ARCC_BENCH_CAMPAIGN_WORKERS the worker
 * split (default 4).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign/campaign.hh"
#include "common/table.hh"

using namespace arcc;
using namespace arcc::bench;

namespace
{

std::uint64_t
channelBudget()
{
    return std::max<std::uint64_t>(
        1, envU64("ARCC_BENCH_CAMPAIGN_CHANNELS", 8192));
}

std::uint32_t
workerBudget()
{
    const std::uint64_t workers =
        envU64("ARCC_BENCH_CAMPAIGN_WORKERS", 4);
    if (workers > std::numeric_limits<std::uint32_t>::max())
        fatal("ARCC_BENCH_CAMPAIGN_WORKERS=%llu is out of range",
              static_cast<unsigned long long>(workers));
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(workers));
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** hex(v) as a JSON string, formatted in one snprintf (the chained
 *  operator+ form trips GCC 12's -Wrestrict false positive). */
std::string
jsonHex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace

int
main()
{
    CampaignSpec spec;
    spec.channels = channelBudget();
    spec.epochTrials = 512;
    spec.seed = 20130223; // HPCA 2013.

    printBanner("Fleet campaign driver");
    std::printf("fleet: %llu channels x %.1f years, boost %.0fx, "
                "%d-device groups, epoch %llu, config %016llx\n\n",
                static_cast<unsigned long long>(spec.channels),
                spec.years, spec.rateBoost, spec.devicesPerGroup,
                static_cast<unsigned long long>(spec.epochTrials),
                static_cast<unsigned long long>(spec.configHash()));

    CampaignDriver driver(spec);
    const std::string ckpt =
        (std::filesystem::temp_directory_path() /
         "arcc_bench_campaign.ckpt").string();
    std::filesystem::remove(ckpt);

    // Leg 1: uninterrupted, no checkpoint.
    auto t0 = std::chrono::steady_clock::now();
    CampaignRunResult plain = driver.run();
    auto t1 = std::chrono::steady_clock::now();

    // Leg 2: same campaign with a sealed record after every epoch.
    CampaignRunOptions with_ckpt;
    with_ckpt.checkpointPath = ckpt;
    auto t2 = std::chrono::steady_clock::now();
    CampaignRunResult checked = driver.run(with_ckpt);
    auto t3 = std::chrono::steady_clock::now();

    // Leg 3: interrupt halfway, then resume -- digests must agree
    // with the uninterrupted run's.
    std::filesystem::remove(ckpt);
    CampaignRunOptions half = with_ckpt;
    half.maxEpochs = (spec.epochCount() + 1) / 2;
    CampaignRunResult first = driver.run(half);
    CampaignRunResult resumed = driver.run(with_ckpt);
    std::filesystem::remove(ckpt);

    // Leg 4: the scale-out axis -- split the fleet across a worker
    // plan, run every slice (sequentially, so the rate is comparable
    // to the plain leg), and fold with mergeCampaigns.
    const std::uint32_t workers = workerBudget();
    const WorkerPlan plan(spec, workers);
    std::vector<CampaignWorkerSlice> slices;
    slices.reserve(workers);
    auto t4 = std::chrono::steady_clock::now();
    for (std::uint32_t id = 0; id < workers; ++id)
        slices.push_back(workerSlice(spec, plan, id,
                                     driver.runWorker(plan, id)));
    CampaignRunResult merged =
        mergeCampaigns(spec, std::move(slices));
    auto t5 = std::chrono::steady_clock::now();

    const double plain_s = seconds(t0, t1);
    const double ckpt_s = seconds(t2, t3);
    const double plain_rate =
        static_cast<double>(spec.channels) / plain_s;
    const double ckpt_rate =
        static_cast<double>(spec.channels) / ckpt_s;
    const double overhead_pct =
        (ckpt_s / plain_s - 1.0) * 100.0;
    const double workers_s = seconds(t4, t5);
    const double workers_rate =
        static_cast<double>(spec.channels) / workers_s;
    const bool merge_match =
        merged.digest(spec) == plain.digest(spec);
    const bool digests_agree =
        plain.digest(spec) == checked.digest(spec) &&
        plain.digest(spec) == resumed.digest(spec) &&
        merge_match &&
        first.interrupted && resumed.resumedFromTrial > 0;

    const CampaignAggregate &agg = plain.aggregate;
    TextTable table;
    table.header({"leg", "trials", "epochs", "trials/s",
                  "digest"});
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.0f", plain_rate);
    table.row({"plain", std::to_string(agg.trials),
               std::to_string(plain.epochsRun), rate,
               hex(plain.digest(spec))});
    std::snprintf(rate, sizeof rate, "%.0f", ckpt_rate);
    table.row({"checkpointed", std::to_string(checked.aggregate.trials),
               std::to_string(checked.epochsRun), rate,
               hex(checked.digest(spec))});
    table.row({"kill+resume", std::to_string(resumed.aggregate.trials),
               std::to_string(first.epochsRun + resumed.epochsRun),
               "-", hex(resumed.digest(spec))});
    std::snprintf(rate, sizeof rate, "%.0f", workers_rate);
    table.row({std::to_string(workers) + " workers+merge",
               std::to_string(merged.aggregate.trials), "-", rate,
               hex(merged.digest(spec))});
    table.print();
    std::printf("\ncheckpoint overhead: %.1f%%  resume equality: %s\n",
                overhead_pct, digests_agree ? "ok" : "MISMATCH");

    jsonRow("campaign",
            {{"channels", jsonNum(spec.channels)},
             {"epoch_trials", jsonNum(spec.epochTrials)},
             {"faults", jsonNum(agg.faultsSampled)},
             {"trials_with_fault", jsonNum(agg.trialsWithFault)},
             {"sdc_candidates", jsonNum(agg.sdcCandidates)},
             {"due_candidates", jsonNum(agg.dueCandidates)},
             {"affected_mean", jsonNum(agg.meanAffected())},
             {"affected_p99", jsonNum(agg.affectedHist.quantile(0.99))},
             {"digest", jsonHex(plain.digest(spec))},
             {"resume_digest_match",
              digests_agree ? "true" : "false"},
             {"trials_per_sec", jsonNum(plain_rate)},
             {"ckpt_trials_per_sec", jsonNum(ckpt_rate)},
             {"ckpt_overhead_pct", jsonNum(overhead_pct)},
             {"workers",
              jsonNum(static_cast<std::uint64_t>(workers))},
             {"merge_digest_match", merge_match ? "true" : "false"},
             {"workers_trials_per_sec", jsonNum(workers_rate)}});

    return digests_agree ? 0 : 1;
}
