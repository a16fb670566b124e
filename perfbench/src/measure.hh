/**
 * @file
 * Measurement primitives of the repo benchmark: operation/failure
 * accounting, the percentile rule, and the in-memory span trace with
 * its self-time analysis.  Built as a library of its own so the
 * self-tests exercise exactly the code the benchmark reports with.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the monotonic clock (an arbitrary but fixed origin). */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Operations attempted and failed.  An operation is a simulation, an
 * epoch, a request, a demand access or a scrub pass; every
 * correctness check is one more attempted item that fails when the
 * check does, so failed <= attempted always holds and fail_ratio is
 * a share in [0, 1].
 */
class Tally
{
  public:
    /** Count `n` operations of which `failed` failed. */
    void
    ops(std::uint64_t n, std::uint64_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed < n ? failed : n;
    }

    /** Count one check; returns `ok` so callers can branch on it. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            failures_.push_back(what);
        }
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double
    failRatio() const
    {
        return attempted_ ? static_cast<double>(failed_) / attempted_
                          : 0.0;
    }
    /** Names of the failed checks, in the order they failed. */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Nearest-rank percentile of an ascending sample (p in [0, 100]). */
double percentileSorted(const std::vector<double> &sorted, double p);

/**
 * A timing distribution summarized by the benchmark's rule: the
 * median, and the highest percentile of the ladder
 * {50, 75, 90, 95, 99, 99.9} that still has at least ten samples
 * beyond it (tailP is 0 when no rung qualifies, i.e. fewer than 20
 * samples), plus the sample count.
 */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double max = 0.0;
    double tailP = 0.0;
    double tail = 0.0;
};

/** Summarize a sample (any order). */
Summary summarize(std::vector<double> samples);

/** "p50=.. p95=.. (n=..)" line for human output, values scaled. */
std::string describe(const Summary &s, double scale, const char *unit);

/** One recorded interval of the traced run. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the causing span, or -1 for a root. */
    long parent = -1;
    /** Job, epoch, request or pass number the span belongs to. */
    std::uint64_t id = 0;
};

/** Layer a span belongs to: its name up to the first '.'. */
std::string layerOf(const std::string &name);

/** Self time and coverage of one finished trace. */
struct TraceAnalysis
{
    /** Sum of span self times per layer (seconds). */
    std::map<std::string, double> selfByLayer;
    /** Share of [wallStart, wallEnd] covered by no span. */
    double uncoveredShare = 1.0;
};

/**
 * Self time of a span = its duration minus the part of it that its
 * children cover (children clipped to the parent and unioned, so
 * overlapping children are not double-subtracted).
 */
TraceAnalysis analyze(const std::vector<Span> &spans, double wallStart,
                      double wallEnd);

/**
 * In-memory span recorder.  Disabled recorders ignore every call, so
 * the untraced run pays one branch per would-be span.  Thread-safe:
 * arccd client threads record concurrently.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its index (or -1 when disabled). */
    long begin(const char *name, std::uint64_t id = 0, long parent = -1);
    /** Close a span opened by begin(). */
    void end(long index);
    /** Record a finished interval directly. */
    long add(const char *name, double start, double end,
             std::uint64_t id = 0, long parent = -1);

    std::vector<Span> spans() const;

    /** Write the spans as JSON lines to `path`; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t id = 0,
          long parent = -1)
        : tracer_(t), index_(t.begin(name, id, parent))
    {
    }
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    long index_;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
