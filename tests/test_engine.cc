/**
 * @file
 * Tests for the parallel simulation engine: splittable RNG streams,
 * deterministic sharding on the engine's own workers (nested and
 * concurrent callers included), and bit-identical Monte Carlo results
 * across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

// --- RNG streams -------------------------------------------------------

TEST(RngStream, PureFunctionOfSeedAndIndex)
{
    Rng a = Rng::stream(42, 7);
    Rng b = Rng::stream(42, 7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, OrderIndependentUnlikeFork)
{
    // fork() makes stream c depend on the c-1 forks before it;
    // stream() must not.  Drawing stream 5 before stream 2 gives the
    // same sequences as the other way around.
    Rng early = Rng::stream(9, 5);
    Rng late2 = Rng::stream(9, 2);
    Rng early2 = Rng::stream(9, 2);
    Rng late = Rng::stream(9, 5);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(early.next(), late.next());
        EXPECT_EQ(early2.next(), late2.next());
    }
}

TEST(RngStream, NeighbouringStreamsAreUncorrelated)
{
    // Cheap independence smoke test: pairwise-distinct outputs and a
    // balanced bit mix across 4 adjacent streams.
    const int draws = 1024;
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 4; ++s) {
        Rng r = Rng::stream(1234, s);
        int ones = 0;
        for (int i = 0; i < draws; ++i) {
            std::uint64_t x = r.next();
            seen.insert(x);
            ones += __builtin_popcountll(x);
        }
        // 64 * 1024 bits, expect ~50% ones (binomial sigma ~0.2%).
        EXPECT_NEAR(ones / (64.0 * draws), 0.5, 0.01);
    }
    EXPECT_EQ(seen.size(), 4u * draws);
}

// --- SimEngine sharding ------------------------------------------------

TEST(SimEngine, ThreadCountsComeOut)
{
    SimEngine one(SimEngine::Options{1});
    EXPECT_EQ(one.threads(), 1);
    SimEngine eight(SimEngine::Options{8});
    EXPECT_EQ(eight.threads(), 8);
}

TEST(SimEngine, ForEachShardCoversEveryItemExactlyOnce)
{
    SimEngine engine(SimEngine::Options{4});
    const std::uint64_t items = 1003; // deliberately not a multiple.
    std::vector<std::atomic<int>> hits(items);
    engine.forEachShard(items, 17, [&](const ShardRange &r) {
        EXPECT_EQ(r.begin, r.index * 17);
        for (std::uint64_t i = r.begin; i < r.end; ++i)
            ++hits[i];
    });
    for (std::uint64_t i = 0; i < items; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(SimEngine, ReduceShardsMergesInShardOrder)
{
    // The merge sees one partial per shard, indexed by shard number,
    // whichever executor produced it.
    for (int threads : {1, 8}) {
        SimEngine engine(SimEngine::Options{threads});
        std::uint64_t total = engine.reduceShards(
            1000, 64,
            [](const ShardRange &r) {
                std::uint64_t s = 0;
                for (std::uint64_t i = r.begin; i < r.end; ++i)
                    s += i;
                return std::pair<std::uint64_t, std::uint64_t>{r.begin,
                                                               s};
            },
            [](std::vector<std::pair<std::uint64_t, std::uint64_t>>
                   &&partials) {
                EXPECT_EQ(partials.size(), 16u);
                std::uint64_t sum = 0;
                for (std::size_t k = 0; k < partials.size(); ++k) {
                    EXPECT_EQ(partials[k].first, k * 64) << "shard " << k;
                    sum += partials[k].second;
                }
                return sum;
            });
        EXPECT_EQ(total, 1000ull * 999 / 2);
    }
}

TEST(SimEngine, ExceptionsPropagateAndEngineStaysUsable)
{
    SimEngine engine(SimEngine::Options{4});
    EXPECT_THROW(
        engine.forEachShard(100, 8,
                            [&](const ShardRange &r) {
                                if (r.index == 5)
                                    throw std::runtime_error("boom");
                            }),
        std::runtime_error);

    // A failed sweep must not poison the engine.
    std::atomic<int> ran{0};
    engine.forEachShard(100, 8, [&](const ShardRange &) { ++ran; });
    EXPECT_EQ(ran.load(), 13); // ceil(100 / 8).
}

TEST(SimEngine, NestedShardedCallsDoNotDeadlock)
{
    SimEngine engine(SimEngine::Options{2});
    std::atomic<int> inner{0};
    engine.forEachShard(4, 1, [&](const ShardRange &) {
        engine.forEachShard(4, 1, [&](const ShardRange &) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 16);
}

TEST(SimEngine, OneThreadRunsEveryShardOnTheCaller)
{
    // A one-thread engine has no workers: every shard, nested ones
    // included, runs on the thread that made the call.
    SimEngine engine(SimEngine::Options{1});
    std::vector<std::thread::id> ran;
    engine.forEachShard(3, 1, [&](const ShardRange &) {
        ran.push_back(std::this_thread::get_id());
        engine.forEachShard(2, 1, [&](const ShardRange &) {
            ran.push_back(std::this_thread::get_id());
        });
    });
    ASSERT_EQ(ran.size(), 9u);
    for (const std::thread::id &id : ran)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(SimEngine, ConcurrentOutsideCallersShareOneEngine)
{
    // The daemon's pattern: several threads the engine does not own
    // call into it at once, each with nested sharded work.
    auto nestedSum = [](const SimEngine &engine, std::uint64_t salt) {
        return engine.reduceShards(
            24, 4,
            [&](const ShardRange &outer) {
                return engine.reduceShards(
                    outer.end - outer.begin, 1,
                    [&](const ShardRange &r) {
                        const std::uint64_t i = outer.begin + r.begin;
                        return Rng::stream(salt, i).next() >> 8;
                    },
                    [](std::vector<std::uint64_t> &&v) {
                        std::uint64_t h = 0;
                        for (std::uint64_t x : v)
                            h = h * 31 + x;
                        return h;
                    });
            },
            [](std::vector<std::uint64_t> &&v) {
                std::uint64_t h = 0;
                for (std::uint64_t x : v)
                    h = h * 1000003 + x;
                return h;
            });
    };

    const SimEngine serial(SimEngine::Options{1});
    const SimEngine shared(SimEngine::Options{2});
    constexpr int kCallers = 4;
    std::vector<std::uint64_t> got(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back(
            [&, c] { got[c] = nestedSum(shared, 100 + c); });
    for (std::thread &t : callers)
        t.join();
    for (int c = 0; c < kCallers; ++c)
        EXPECT_EQ(got[c], nestedSum(serial, 100 + c)) << "caller " << c;
}

// --- ARCC_THREADS validation -------------------------------------------

/** RAII guard: set ARCC_THREADS for one test, restore on exit. */
class ArccThreadsGuard
{
  public:
    explicit ArccThreadsGuard(const char *value)
    {
        if (const char *old = ::getenv("ARCC_THREADS")) {
            had_ = true;
            old_ = old;
        }
        ::setenv("ARCC_THREADS", value, 1);
    }

    ~ArccThreadsGuard()
    {
        if (had_)
            ::setenv("ARCC_THREADS", old_.c_str(), 1);
        else
            ::unsetenv("ARCC_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

TEST(SimEngineEnv, ValidThreadCountSizesTheEngine)
{
    ArccThreadsGuard guard("3");
    SimEngine engine(SimEngine::Options{0}); // 0 = consult the env.
    EXPECT_EQ(engine.threads(), 3);
}

TEST(SimEngineEnv, ExplicitOptionsIgnoreTheEnv)
{
    ArccThreadsGuard guard("3");
    SimEngine engine(SimEngine::Options{2});
    EXPECT_EQ(engine.threads(), 2);
}

// Regression: SimEngine used to read ARCC_THREADS with std::atoi and
// silently fall back to the hardware count on garbage -- the variable
// that sizes every engine in the process deserves a loud failure.
TEST(SimEngineEnvDeath, GarbageThreadCountIsFatal)
{
    ArccThreadsGuard guard("8cores");
    EXPECT_ARCC_ERROR({ SimEngine engine(SimEngine::Options{0}); },
                      "ARCC_THREADS.*8cores");
}

TEST(SimEngineEnvDeath, NegativeThreadCountIsFatal)
{
    ArccThreadsGuard guard("-4");
    EXPECT_ARCC_ERROR({ SimEngine engine(SimEngine::Options{0}); },
                      "ARCC_THREADS.*negative");
}

TEST(SimEngineEnvDeath, ZeroThreadsIsFatal)
{
    ArccThreadsGuard guard("0");
    EXPECT_ARCC_ERROR({ SimEngine engine(SimEngine::Options{0}); },
                      "ARCC_THREADS.*thread count");
}

TEST(SimEngineEnvDeath, AbsurdThreadCountIsFatal)
{
    ArccThreadsGuard guard("40000");
    EXPECT_ARCC_ERROR({ SimEngine engine(SimEngine::Options{0}); },
                      "ARCC_THREADS.*thread count");
}

// --- determinism across thread counts ----------------------------------

TEST(SimEngine, LifetimeMcIsBitIdenticalAcrossThreadCounts)
{
    CampaignSpec spec;
    spec.rateBoost = 1.0;
    spec.years = 7.0;
    spec.channels = 2000;
    spec.seed = 2013;

    SimEngine one(SimEngine::Options{1});
    SimEngine eight(SimEngine::Options{8});
    const CampaignDriver serial(spec, &one);
    const CampaignDriver parallel(spec, &eight);

    AffectedCurve a = serial.affectedCurve(2);
    AffectedCurve b = parallel.affectedCurve(2);
    ASSERT_EQ(a.avgFraction.size(), b.avgFraction.size());
    for (std::size_t i = 0; i < a.avgFraction.size(); ++i)
        EXPECT_EQ(a.avgFraction[i], b.avgFraction[i]) << "point " << i;

    PerTypeOverhead overhead{};
    for (FaultType t : allFaultTypes())
        overhead[static_cast<int>(t)] = 0.25;
    EXPECT_EQ(serial.overheadByYear(overhead, 1.0),
              parallel.overheadByYear(overhead, 1.0));
}

TEST(SimEngine, MixBatchMatchesSequentialSimulateMix)
{
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 20000; // keep the test quick.
    cfg.seed = 20130223;

    std::vector<MixJob> jobs;
    jobs.push_back({table73Mixes()[0], cfg, {}});
    jobs.push_back({table73Mixes()[1], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Lane, cfg.mem)});
    jobs.push_back({table73Mixes()[2], cfg,
                    PageUpgradeOracle::forScenario(
                        PageUpgradeOracle::Scenario::Bank, cfg.mem)});

    SimEngine eight(SimEngine::Options{8});
    std::vector<SimResult> batch = simulateMixBatch(jobs, &eight);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SimResult ref =
            simulateMix(jobs[j].mix, jobs[j].config, jobs[j].oracle);
        EXPECT_EQ(batch[j].ipcSum, ref.ipcSum) << "job " << j;
        EXPECT_EQ(batch[j].avgPowerMw, ref.avgPowerMw) << "job " << j;
        EXPECT_EQ(batch[j].memReads, ref.memReads) << "job " << j;
    }
}

} // namespace
} // namespace arcc
