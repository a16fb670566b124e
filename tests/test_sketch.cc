/**
 * @file
 * StreamingHistogram tests: exact counters, quantile accuracy bounds,
 * merge associativity/exactness (the property the campaign's
 * determinism rests on), serialization round-trips, and the fatal
 * paths for NaN samples, shape mismatches and truncated blobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/sketch.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

StreamingHistogram
filled(double lo, double hi, std::uint32_t bins,
       const std::vector<double> &samples)
{
    StreamingHistogram h(lo, hi, bins);
    for (double s : samples)
        h.add(s);
    return h;
}

TEST(Sketch, CountersAreExact)
{
    StreamingHistogram h(0.0, 10.0, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);

    h.add(-1.0); // underflow
    h.add(0.0);
    h.add(5.5);
    h.add(10.0); // hi is exclusive: overflow
    h.add(42.0); // overflow

    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 56.5);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 42.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
}

TEST(Sketch, QuantileWithinOneBinWidth)
{
    // 10k uniform samples in [0, 1): every interior quantile must
    // land within one bin width of the truth, and the extremes clamp
    // to the exact min/max.
    Rng rng(11);
    std::vector<double> samples;
    for (int i = 0; i < 10000; ++i)
        samples.push_back(rng.uniform());
    StreamingHistogram h = filled(0.0, 1.0, 64, samples);

    std::sort(samples.begin(), samples.end());
    const double bin_width = 1.0 / 64.0;
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double exact =
            samples[static_cast<std::size_t>(q * samples.size())];
        EXPECT_NEAR(h.quantile(q), exact, bin_width) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
    EXPECT_DOUBLE_EQ(h.quantile(1.0),
                     *std::max_element(samples.begin(),
                                       samples.end()));
}

TEST(Sketch, MergeEqualsPooledStream)
{
    // Splitting a stream into chunks and merging the chunk sketches:
    // all integer state (bin counts, totals, under/overflow) and the
    // exact min/max are identical to one pooled sketch for *any*
    // chunking; the double sum is regrouped so it only agrees to
    // rounding.  Bit-identical sums need a fixed fold order, which is
    // exactly what the campaign's fixed shard/epoch decomposition
    // provides -- checked by the repeat below and, end to end, by
    // tests/test_determinism.cc.
    Rng rng(23);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i)
        samples.push_back(rng.uniform() * 2.0 - 0.5);

    StreamingHistogram pooled = filled(0.0, 1.0, 32, samples);

    auto merge_chunks = [&] {
        StreamingHistogram merged; // shapeless: adopts on 1st merge.
        std::size_t at = 0;
        for (std::size_t chunk : {1000u, 1u, 2500u, 499u, 1000u}) {
            StreamingHistogram part(0.0, 1.0, 32);
            for (std::size_t i = 0; i < chunk; ++i)
                part.add(samples[at++]);
            merged.merge(part);
        }
        EXPECT_EQ(at, samples.size());
        return merged;
    };
    StreamingHistogram merged = merge_chunks();

    EXPECT_EQ(merged.count(), pooled.count());
    EXPECT_EQ(merged.underflow(), pooled.underflow());
    EXPECT_EQ(merged.overflow(), pooled.overflow());
    for (std::uint32_t b = 0; b < pooled.bins(); ++b)
        EXPECT_EQ(merged.binCount(b), pooled.binCount(b)) << b;
    EXPECT_EQ(merged.min(), pooled.min());
    EXPECT_EQ(merged.max(), pooled.max());
    EXPECT_NEAR(merged.sum(), pooled.sum(),
                1e-9 * std::abs(pooled.sum()));

    // The same decomposition replayed is bit-identical, hash and all.
    EXPECT_EQ(merge_chunks().hash(), merged.hash());
}

TEST(Sketch, MergeEmptyIsIdentity)
{
    StreamingHistogram h = filled(0.0, 1.0, 8, {0.25, 0.75});
    const std::uint64_t before = h.hash();
    h.merge(StreamingHistogram{});
    EXPECT_EQ(h.hash(), before);
    h.merge(StreamingHistogram(0.0, 1.0, 8));
    EXPECT_EQ(h.count(), 2u);
}

TEST(Sketch, SerializeRoundTripsBitIdentically)
{
    Rng rng(31);
    StreamingHistogram h(-2.0, 3.0, 17);
    for (int i = 0; i < 300; ++i)
        h.add(rng.uniform() * 6.0 - 3.0);

    std::vector<std::uint8_t> blob;
    h.serializeTo(blob);
    const std::uint8_t *cursor = blob.data();
    const std::uint8_t *end = blob.data() + blob.size();
    StreamingHistogram back =
        StreamingHistogram::deserializeFrom(&cursor, end);
    EXPECT_EQ(cursor, end);
    EXPECT_EQ(back.hash(), h.hash());
    EXPECT_EQ(back.bins(), h.bins());
    EXPECT_EQ(back.sum(), h.sum());
    EXPECT_EQ(back.min(), h.min());
    EXPECT_EQ(back.max(), h.max());
}

TEST(SketchDeathTest, BadInputsAreFatal)
{
    EXPECT_ARCC_ERROR(StreamingHistogram(1.0, 1.0, 8), "degenerate");
    EXPECT_ARCC_ERROR(StreamingHistogram(0.0, 1.0, 0), "bad bin count");

    EXPECT_ARCC_ERROR(
        {
            StreamingHistogram h(0.0, 1.0, 8);
            h.add(std::nan(""));
        },
        "NaN");

    EXPECT_ARCC_ERROR(
        {
            StreamingHistogram a(0.0, 1.0, 8);
            StreamingHistogram b(0.0, 1.0, 16);
            a.merge(b);
        },
        "mismatched shapes");
}

TEST(SketchDeathTest, TruncatedBlobIsFatal)
{
    StreamingHistogram h(0.0, 1.0, 4);
    h.add(0.5);
    std::vector<std::uint8_t> blob;
    h.serializeTo(blob);
    // Every proper prefix must be rejected, not silently zero-filled.
    for (std::size_t cut : {blob.size() - 1, blob.size() / 2,
                            std::size_t{5}}) {
        EXPECT_ARCC_ERROR(
            {
                const std::uint8_t *cursor = blob.data();
                StreamingHistogram::deserializeFrom(&cursor,
                                                    blob.data() + cut);
            },
            "truncated blob")
            << "cut=" << cut;
    }
}

} // namespace
} // namespace arcc
