/**
 * @file
 * What every workload of the repo benchmark shares: its arguments,
 * the metric sink that becomes the final JSON line, the host
 * fingerprint, and digest helpers for the bit-identity checks.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "measure.hh"

namespace arcc
{
struct SimResult;
} // namespace arcc

namespace perfbench
{

/** Parsed command line plus the per-run scratch directory. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 10;
    bool trace = false;
    /** Engine threads and client connections of the measured load:
     *  half of maxThreads, at least 1. */
    int threads = 2;
    /** min(4, nproc): the widest engine the checks compare against. */
    int maxThreads = 4;
    /** Scratch directory inside the checkout, removed at exit. */
    std::string workDir;
};

/** One metric as the final JSON line carries it. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run reports. */
const std::vector<MetricDef> &endToEndMetrics();
/** The per-layer metrics every traced run reports (0 = the layer is
 *  not exercised or not measured on this workload). */
const std::vector<MetricDef> &perLayerMetrics();
/** Layers, in report order (the modules under src/). */
const std::vector<std::string> &layers();

/** Metric sink + failure tally of one run. */
class Report
{
  public:
    explicit Report(const RunArgs &args) : args_(args), tracer_(args.trace)
    {
    }

    /** Set a metric (end-to-end or per-layer) by name. */
    void set(const std::string &name, double value);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    Tally &tally() { return tally_; }
    Tracer &tracer() { return tracer_; }
    const RunArgs &args() const { return args_; }

    /** Human-readable line (stdout, before the final JSON). */
    void note(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    /**
     * Fill the trace-derived per-layer metrics (self time per layer,
     * uncovered share, span count) from the recorded spans over the
     * traced window [start, end].
     */
    void analyzeTrace(double start, double end);

    /** Print the final JSON line; returns the process exit code. */
    int finish() const;

  private:
    RunArgs args_;
    Tally tally_;
    Tracer tracer_;
    std::map<std::string, double> values_;
};

/** "nproc=.. simd=.. compiler=.. build=.. engine_threads=.." */
std::string hostFingerprint(int engineThreads);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Median of a small sample (the set-up repetitions). */
double median(std::vector<double> v);

/** Digest fold (splitmix64 chain) for the bit-identity checks. */
inline std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return arcc::Rng::mix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

inline std::uint64_t
foldDouble(std::uint64_t h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return fold(h, bits);
}

inline std::uint64_t
foldString(std::uint64_t h, const std::string &s)
{
    h = fold(h, s.size());
    for (char c : s)
        h = fold(h, static_cast<unsigned char>(c));
    return h;
}

/** Digest of every simulated statistic of one result. */
std::uint64_t simDigest(const arcc::SimResult &r);

/**
 * Run a workload's measured loop.  An untraced run gives the loop all
 * of --seconds and takes peak_rss_mb as it ends, so the checks that
 * follow, which are the benchmark's work and not the program's, do
 * not count.  A traced run gives it half untraced, then half
 * recording into the report's tracer; the ratio of the two halves'
 * rate() is trace.overhead, and the traced window starts at the
 * second half (`traceStart`).  `loop(tracer, seconds, half)` runs one
 * loop; `half` (0 or 1) lets it keep the halves' inputs distinct.
 * Returns the loop result the run reports.
 */
template <class Loop>
auto
measuredLoop(Report &rep, Loop loop, const char *unit, double &traceStart)
{
    Tracer untraced(false);
    const RunArgs &args = rep.args();
    if (!args.trace) {
        auto result = loop(untraced, static_cast<double>(args.seconds), 0);
        rep.set("peak_rss_mb", peakRssMb());
        return result;
    }
    const auto plain = loop(untraced, args.seconds / 2.0, 0);
    traceStart = now();
    auto traced = loop(rep.tracer(), args.seconds / 2.0, 1);
    const double overhead = plain.rate() / traced.rate() - 1.0;
    rep.set("trace.overhead", overhead);
    rep.note("trace: overhead %.2f%% (untraced %.6g vs traced %.6g %s)",
             100.0 * overhead, plain.rate(), traced.rate(), unit);
    return traced;
}

/** Workload entry points; each fills `report` and its tally. */
void runSimGrid(Report &report);
void runCampaign(Report &report);
void runArccd(Report &report);
void runScrub(Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
