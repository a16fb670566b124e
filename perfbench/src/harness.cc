#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "cpu/system_sim.hh"
#include "ecc/simd.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"work_per_s", "work/s"},
        {"op_p50_ms", "ms"},
        {"op_p90_ms", "ms"},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = {
        {"engine.batch_s", "s"},
        {"engine.serial_s", "s"},
        {"engine.parallel_efficiency", "ratio"},
        {"engine.job_p50_ms", "ms"},
        {"engine.job_max_ms", "ms"},
        {"engine.scrub_efficiency", "ratio"},
        {"cpu.record_s", "s"},
        {"cpu.accesses", "count"},
        {"cpu.pass_ratio", "ratio"},
        {"cache.access_s", "s"},
        {"cache.accesses", "count"},
        {"cache.miss_ratio", "ratio"},
        {"cache.writebacks", "count"},
        {"dram.decode_s", "s"},
        {"dram.decodes", "count"},
        {"dram.access_s", "s"},
        {"dram.requests", "count"},
        {"model.power_saving_pct", "%"},
        {"model.ipc_gain_pct", "%"},
        {"faults.sample_s", "s"},
        {"faults.events", "count"},
        {"faults.footprint_s", "s"},
        {"reliability.overlap_s", "s"},
        {"reliability.pairs_scanned", "count"},
        {"reliability.overlap_ratio", "ratio"},
        {"campaign.kernel_trials_per_s", "1/s"},
        {"campaign.plain_s", "s"},
        {"campaign.ckpt_s", "s"},
        {"campaign.ckpt_overhead", "ratio"},
        {"campaign.append_p50_ms", "ms"},
        {"campaign.append_max_ms", "ms"},
        {"campaign.appends", "count"},
        {"campaign.serialize_us", "us"},
        {"campaign.merge_ms", "ms"},
        {"service.parse_us", "us"},
        {"service.parse_trace_us", "us"},
        {"service.canonical_us", "us"},
        {"service.eval_hit_us", "us"},
        {"service.transport_us", "us"},
        {"service.eval_cold_ms", "ms"},
        {"service.queue_wait_ms", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.coalesced", "count"},
        {"service.errors", "count"},
        {"arcc.read_s", "s"},
        {"arcc.reads", "count"},
        {"arcc.write_s", "s"},
        {"arcc.writes", "count"},
        {"arcc.scrub_s", "s"},
        {"arcc.boot_scrub_s", "s"},
        {"arcc.corrected", "count"},
        {"arcc.dues", "count"},
        {"arcc.pages_upgraded", "count"},
        {"ecc.screen_s", "s"},
        {"ecc.decode_s", "s"},
        {"ecc.flagged_ratio", "ratio"},
        {"engine.self_s", "s"},
        {"cpu.self_s", "s"},
        {"cache.self_s", "s"},
        {"dram.self_s", "s"},
        {"campaign.self_s", "s"},
        {"faults.self_s", "s"},
        {"reliability.self_s", "s"},
        {"service.self_s", "s"},
        {"arcc.self_s", "s"},
        {"ecc.self_s", "s"},
        {"trace.uncovered_share", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.spans", "count"},
    };
    return m;
}

const std::vector<std::string> &
layers()
{
    static const std::vector<std::string> l = {
        "engine",   "cpu",         "cache",    "dram", "campaign",
        "faults",   "reliability", "service",  "arcc", "ecc"};
    return l;
}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

bool
Report::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

double
Report::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
Report::note(const char *fmt, ...) const
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

void
Report::analyzeTrace(double start, double end)
{
    const std::vector<Span> spans = tracer_.spans();
    const TraceAnalysis a = analyze(spans, start, end);
    for (const std::string &layer : layers()) {
        auto it = a.selfByLayer.find(layer);
        set(layer + ".self_s", it == a.selfByLayer.end() ? 0.0 : it->second);
    }
    for (const auto &[layer, self] : a.selfByLayer)
        note("trace: %-12s self %.6f s", layer.c_str(), self);
    set("trace.uncovered_share", a.uncoveredShare);
    set("trace.spans", static_cast<double>(spans.size()));
    note("trace: %zu spans, %.2f%% of the %.3f s traced window covered "
         "by no span",
         spans.size(), 100.0 * a.uncoveredShare, end - start);
}

int
Report::finish() const
{
    note("fail_ratio=%.6g (%llu failed of %llu attempted)",
         tally_.failRatio(),
         static_cast<unsigned long long>(tally_.failed()),
         static_cast<unsigned long long>(tally_.attempted()));
    for (const std::string &f : tally_.failures())
        note("FAILED check: %s", f.c_str());

    const auto &defs = args_.trace ? perLayerMetrics() : endToEndMetrics();
    bool complete = true;
    std::string metrics;
    for (const MetricDef &d : defs) {
        if (!has(d.name) && !args_.trace) {
            note("FAILED: end-to-end metric %s was not measured", d.name);
            complete = false;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      metrics.empty() ? "" : ",", d.name, get(d.name),
                      d.unit);
        metrics += buf;
    }
    const bool correct = complete && tally_.failed() == 0 &&
                         tally_.attempted() > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(1, tally_.attempted())),
                static_cast<unsigned long long>(tally_.failed()),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

std::string
hostFingerprint(int engineThreads)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "nproc=%u simd=%s compiler=%s build=%s "
                  "engine_threads=%d",
                  std::thread::hardware_concurrency(),
                  arcc::simd::tierName(arcc::simd::activeTier()),
#if defined(__clang__)
                  "clang " __clang_version__,
#elif defined(__GNUC__)
                  "gcc " __VERSION__,
#else
                  "unknown",
#endif
                  PERFBENCH_BUILD_TYPE, engineThreads);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
simDigest(const arcc::SimResult &r)
{
    std::uint64_t h = 0x5349474eULL;
    h = foldDouble(h, r.ipcSum);
    h = foldDouble(h, r.elapsedNs);
    h = foldDouble(h, r.power.dynamicNj);
    h = foldDouble(h, r.power.backgroundNj);
    h = foldDouble(h, r.power.refreshNj);
    h = foldDouble(h, r.avgPowerMw);
    h = fold(h, r.llcStats.hits);
    h = fold(h, r.llcStats.misses);
    h = fold(h, r.llcStats.evictions);
    h = fold(h, r.llcStats.pairedFills);
    h = fold(h, r.llcStats.pairedWritebacks);
    h = fold(h, r.memReads);
    h = fold(h, r.memWrites);
    h = fold(h, r.scrubReads);
    h = fold(h, r.scrubWrites);
    for (const arcc::CoreResult &c : r.cores) {
        h = foldString(h, c.benchmark);
        h = fold(h, c.instrs);
        h = foldDouble(h, c.ipc);
        h = fold(h, c.llcAccesses);
        h = fold(h, c.llcMisses);
        h = fold(h, c.traceLaps);
    }
    return h;
}

} // namespace perfbench
