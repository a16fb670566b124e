/**
 * @file
 * The repo benchmark program:
 *
 *   perfbench --workload <sim_grid|campaign|arccd|scrub> --seed <n>
 *             --seconds <n> --trace <0|1>
 *
 * Prints human-readable lines (host fingerprint, checks, layer
 * breakdowns) and, last, one JSON object with the run's correctness,
 * operation counts and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1.  Exits nonzero
 * when any correctness check failed.  All scratch files live under
 * .bench_build/ of the working directory.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/parse_num.hh"
#include "harness.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<sim_grid|campaign|arccd|scrub> --seed <n> "
                 "--seconds <n> --trace <0|1>\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = arcc::parseU64("--seed", value);
        } else if (flag == "--seconds") {
            args.seconds = arcc::parseU64("--seconds", value);
        } else if (flag == "--trace") {
            const std::uint64_t t = arcc::parseU64("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            args.trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (args.seconds < 1 || args.seconds > 600)
        usage("--seconds must be in [1, 600]");

    void (*run)(Report &) = nullptr;
    if (args.workload == "sim_grid")
        run = runSimGrid;
    else if (args.workload == "campaign")
        run = runCampaign;
    else if (args.workload == "arccd")
        run = runArccd;
    else if (args.workload == "scrub")
        run = runScrub;
    else
        usage(("unknown workload " + args.workload).c_str());

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // The load leaves half the cores free: on a shared host, a load as
    // wide as the machine times the scheduler's handling of every
    // other tenant rather than the program.
    args.maxThreads = static_cast<int>(std::min(4u, hw));
    args.threads = std::max(1, args.maxThreads / 2);
    args.workDir = ".bench_build/tmp/" + args.workload + "-" +
                   std::to_string(::getpid());
    std::filesystem::create_directories(args.workDir);

    Report report(args);
    report.note("host: %s", hostFingerprint(args.threads).c_str());
    report.note("run: workload=%s seed=%llu seconds=%llu trace=%d",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seconds),
                args.trace ? 1 : 0);
    run(report);

    if (args.trace) {
        std::filesystem::create_directories(".bench_build/traces");
        const std::string path = ".bench_build/traces/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".jsonl";
        report.tally().check(report.tracer().write(path),
                             "trace written to " + path);
        report.note("trace: spans written to %s", path.c_str());
    }
    std::error_code ec;
    std::filesystem::remove_all(args.workDir, ec);
    return report.finish();
}
