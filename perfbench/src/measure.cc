#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench
{

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    // Nearest rank: the smallest value with at least p% of the
    // sample at or below it.
    const double rank = std::ceil(p / 100.0 * sorted.size());
    std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(i, sorted.size() - 1)];
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentileSorted(samples, 50.0);
    s.p90 = percentileSorted(samples, 90.0);
    s.max = samples.back();
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const double v = percentileSorted(samples, p);
        const auto beyond = static_cast<std::size_t>(
            samples.end() -
            std::upper_bound(samples.begin(), samples.end(), v));
        if (beyond >= 10) {
            s.tailP = p;
            s.tail = v;
        }
    }
    return s;
}

std::string
describe(const Summary &s, double scale, const char *unit)
{
    char buf[160];
    if (s.tailP > 0.0)
        std::snprintf(buf, sizeof buf, "p50=%.4g%s p%g=%.4g%s (n=%zu)",
                      s.p50 * scale, unit, s.tailP, s.tail * scale, unit,
                      s.n);
    else
        std::snprintf(buf, sizeof buf,
                      "p50=%.4g%s max=%.4g%s (n=%zu, too few for a tail)",
                      s.p50 * scale, unit, s.max * scale, unit, s.n);
    return buf;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

namespace
{

/** Total length of the union of intervals (sorted in place). */
double
unionLength(std::vector<std::pair<double, double>> &iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double curStart = 0.0;
    double curEnd = 0.0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (b <= a)
            continue;
        if (!open || a > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = a;
            curEnd = b;
            open = true;
        } else {
            curEnd = std::max(curEnd, b);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

} // namespace

TraceAnalysis
analyze(const std::vector<Span> &spans, double wallStart, double wallEnd)
{
    TraceAnalysis out;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[s.parent];
        children[s.parent].emplace_back(std::max(s.start, p.start),
                                        std::min(s.end, p.end));
    }
    std::vector<std::pair<double, double>> all;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double self =
            std::max(0.0, (s.end - s.start) - unionLength(children[i]));
        out.selfByLayer[layerOf(s.name)] += self;
        all.emplace_back(std::max(s.start, wallStart),
                         std::min(s.end, wallEnd));
    }
    const double wall = wallEnd - wallStart;
    if (wall > 0.0)
        out.uncoveredShare =
            std::max(0.0, 1.0 - unionLength(all) / wall);
    return out;
}

long
Tracer::begin(const char *name, std::uint64_t id, long parent)
{
    if (!enabled_)
        return -1;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, t, t, parent, id});
    return static_cast<long>(spans_.size()) - 1;
}

void
Tracer::end(long index)
{
    if (!enabled_ || index < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = t;
}

long
Tracer::add(const char *name, double start, double end, std::uint64_t id,
            long parent)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, id});
    return static_cast<long>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"i\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                     "\"end\":%.9f,\"parent\":%ld,\"id\":%llu}\n",
                     i, s.name.c_str(), s.start, s.end, s.parent,
                     static_cast<unsigned long long>(s.id));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
