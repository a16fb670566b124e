/**
 * @file
 * Self-tests of the benchmark's own measurement code: self time on a
 * hand-built span tree, the "ten samples beyond" percentile rule, and
 * the fail_ratio accounting.  Exits nonzero on the first failure.
 *
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
selfTimeOnHandBuiltTree()
{
    // root  engine.batch   [0, 10]
    //  +- a  cpu.record     [1, 4]
    //  |   +- c  cache.access [2, 3]
    //  +- b  dram.access    [3, 6]  (overlaps a by 1)
    //  +- d  dram.decode    [9, 12] (runs past the root; clipped)
    // loose  ecc.screen      [20, 21]
    std::vector<Span> spans = {
        {"engine.batch", 0, 10, -1, 0}, {"cpu.record", 1, 4, 0, 0},
        {"cache.access", 2, 3, 1, 0},   {"dram.access", 3, 6, 0, 0},
        {"dram.decode", 9, 12, 0, 0},   {"ecc.screen", 20, 21, -1, 0},
    };
    const TraceAnalysis a = analyze(spans, 0.0, 25.0);
    // Root: 10 minus the union of [1,4], [3,6], [9,10] = 10 - 6 = 4.
    expect(near(a.selfByLayer.at("engine"), 4.0),
           "root self time subtracts the union of its clipped children");
    expect(near(a.selfByLayer.at("cpu"), 2.0),
           "a child's self time subtracts its own child");
    expect(near(a.selfByLayer.at("cache"), 1.0), "leaf self time");
    expect(near(a.selfByLayer.at("dram"), 3.0 + 3.0),
           "layer self time sums every span of the layer");
    expect(near(a.selfByLayer.at("ecc"), 1.0), "root without children");
    // Covered: [0,12] and [20,21] = 13 of 25.
    expect(near(a.uncoveredShare, 12.0 / 25.0),
           "uncovered share is wall time no span covers");
    expect(layerOf("service.eval_hit") == "service",
           "layer is the name up to the first dot");
}

void
percentileRule()
{
    std::vector<double> few(19);
    for (int i = 0; i < 19; ++i)
        few[i] = i + 1;
    Summary s = summarize(few);
    expect(s.n == 19 && s.tailP == 0.0,
           "19 samples: not even p50 has ten beyond, so no tail");
    expect(near(s.p50, 10.0), "nearest-rank median of 1..19");

    std::vector<double> hundred(100);
    for (int i = 0; i < 100; ++i)
        hundred[99 - i] = i + 1; // unsorted input
    s = summarize(hundred);
    expect(s.tailP == 90.0 && near(s.tail, 90.0),
           "100 samples: p90 has exactly ten beyond, p95 only five");
    expect(near(s.p50, 50.0) && near(s.max, 100.0), "median and max");

    std::vector<double> thousand(1000);
    for (int i = 0; i < 1000; ++i)
        thousand[i] = i + 1;
    s = summarize(thousand);
    expect(s.tailP == 99.0 && near(s.tail, 990.0),
           "1000 samples: p99 has ten beyond, p99.9 one");

    std::vector<double> ties(40, 5.0);
    ties.push_back(7.0);
    s = summarize(ties);
    expect(s.tailP == 0.0,
           "ties: samples equal to the percentile are not beyond it");
}

void
failRatioAccounting()
{
    Tally t;
    expect(t.failRatio() == 0.0, "empty tally has ratio 0");
    t.ops(90);
    t.ops(8, 2);
    expect(t.check(true, "passes"), "check returns its verdict");
    expect(!t.check(false, "digest mismatch"), "failed check returns false");
    expect(t.attempted() == 100 && t.failed() == 3,
           "ops and checks both count as attempted; failures add up");
    expect(near(t.failRatio(), 0.03), "fail_ratio = failed / attempted");
    t.ops(1, 5);
    expect(t.failed() == 4 && t.attempted() == 101,
           "an op batch cannot fail more items than it attempted");
    expect(t.failures().size() == 1 && t.failures()[0] == "digest mismatch",
           "failed checks are named");
}

} // namespace

int
main()
{
    selfTimeOnHandBuiltTree();
    percentileRule();
    failRatioAccounting();
    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
