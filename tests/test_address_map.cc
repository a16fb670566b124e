/**
 * @file
 * Address-map tests: bijectivity, the channel-alternation property
 * ARCC depends on, and the page geometry behind Table 7.4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/address_map.hh"
#include "dram/channel_shard.hh"
#include "dram/dram_params.hh"

namespace arcc
{
namespace
{

struct MapCase
{
    const char *config;
    MapPolicy policy;
};

const char *
policyName(MapPolicy policy)
{
    return policy == MapPolicy::HiPerf      ? "HiPerf"
           : policy == MapPolicy::ClosePage ? "ClosePage"
                                            : "Base";
}

/** Names the case in ctest, instead of a byte dump of the struct. */
void
PrintTo(const MapCase &c, std::ostream *os)
{
    *os << c.config << "/" << policyName(c.policy);
}

/** The library's config table plus the nine-device LOT-ECC config. */
MemoryConfig
configByName(const std::string &name)
{
    return name == "lot9" ? lotEcc9Config() : memoryConfigByName(name);
}

class MapSweep : public ::testing::TestWithParam<MapCase>
{
};

TEST_P(MapSweep, DecodeEncodeRoundTripsOnRandomAddresses)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    Rng rng(1);
    for (int t = 0; t < 5000; ++t) {
        std::uint64_t addr =
            (rng.below(map.capacity() / kLineBytes)) * kLineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_EQ(map.encode(c), addr);
    }
}

TEST_P(MapSweep, CoordinatesStayInRange)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    Rng rng(2);
    for (int t = 0; t < 5000; ++t) {
        std::uint64_t addr =
            (rng.below(map.capacity() / kLineBytes)) * kLineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, cfg.channels);
        EXPECT_LT(c.rank, cfg.ranksPerChannel);
        EXPECT_LT(c.bank, cfg.device.banks);
        EXPECT_LT(c.column, map.linesPerRow());
        EXPECT_LT(c.row, map.rows());
    }
}

TEST_P(MapSweep, DistinctCoordinatesForDistinctLines)
{
    MemoryConfig cfg = configByName(GetParam().config);
    AddressMap map(cfg, GetParam().policy);
    std::set<std::tuple<int, int, int, std::uint32_t, std::uint32_t>>
        seen;
    // Walk a contiguous region; every line must land somewhere unique.
    for (std::uint64_t line = 0; line < 4096; ++line) {
        DramCoord c = map.decode(line * kLineBytes);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second) << "line " << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAllPolicies, MapSweep,
    ::testing::Values(MapCase{"baseline", MapPolicy::HiPerf},
                      MapCase{"baseline", MapPolicy::ClosePage},
                      MapCase{"baseline", MapPolicy::Base},
                      MapCase{"arcc", MapPolicy::HiPerf},
                      MapCase{"arcc", MapPolicy::ClosePage},
                      MapCase{"arcc", MapPolicy::Base},
                      MapCase{"arcc4", MapPolicy::HiPerf},
                      MapCase{"arcc4", MapPolicy::ClosePage},
                      MapCase{"arcc8", MapPolicy::HiPerf},
                      MapCase{"arcc8", MapPolicy::Base},
                      MapCase{"lot9", MapPolicy::HiPerf}),
    [](const ::testing::TestParamInfo<MapCase> &info) {
        return std::string(info.param.config) + "_" +
               policyName(info.param.policy);
    });

TEST(AddressMap, AdjacentLinesAlternateChannelsUnderHiPerf)
{
    // Section 4.1: the two 64B sub-lines of an upgraded 128B line must
    // live in different channels at otherwise identical coordinates.
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    Rng rng(3);
    for (int t = 0; t < 2000; ++t) {
        std::uint64_t pair_base =
            (rng.below(map.capacity() / kUpgradedLineBytes)) *
            kUpgradedLineBytes;
        DramCoord a = map.decode(pair_base);
        DramCoord b = map.decode(pair_base + kLineBytes);
        EXPECT_NE(a.channel, b.channel);
        EXPECT_EQ(a.rank, b.rank);
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.row, b.row);
        EXPECT_EQ(a.column, b.column);
    }
}

TEST(AddressMap, PairsSpanAdjacentEvenOddChannelsOnWideConfigs)
{
    // The property ChannelShardPlan's probe discovers: under the
    // interleaved maps a 128B pair always spans channels {2k, 2k+1},
    // so the plan can shard a 2N-channel system into N pairable
    // groups (and N*2 clean-traffic groups) instead of one.
    for (int channels : {4, 8}) {
        SCOPED_TRACE("channels=" + std::to_string(channels));
        AddressMap map(withChannels(arccConfig(), channels),
                       MapPolicy::HiPerf);
        Rng rng(4);
        for (int t = 0; t < 2000; ++t) {
            std::uint64_t pair_base =
                (rng.below(map.capacity() / kUpgradedLineBytes)) *
                kUpgradedLineBytes;
            DramCoord a = map.decode(pair_base);
            DramCoord b = map.decode(pair_base + kLineBytes);
            EXPECT_EQ(a.channel % 2, 0);
            EXPECT_EQ(b.channel, a.channel + 1);
        }
    }
}

TEST(AddressMap, PageIsContainedInOneRankBankRowHalf)
{
    // Table 7.4's fractions need every 4KB page to live in a single
    // (rank, bank, row, half-row) at all (channel, column) positions.
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    Rng rng(4);
    std::uint64_t pages = map.capacity() / kPageBytes;
    for (int t = 0; t < 200; ++t) {
        std::uint64_t page = rng.below(pages);
        DramCoord first = map.decode(page * kPageBytes);
        bool first_half = first.column < map.linesPerRow() / 2;
        for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
            DramCoord c =
                map.decode(page * kPageBytes + l * kLineBytes);
            EXPECT_EQ(c.rank, first.rank);
            EXPECT_EQ(c.bank, first.bank);
            EXPECT_EQ(c.row, first.row);
            EXPECT_EQ(c.column < map.linesPerRow() / 2, first_half);
        }
    }
}

TEST(AddressMap, PageSpreadsAcrossAllChannels)
{
    AddressMap map(arccConfig(), MapPolicy::HiPerf);
    std::set<int> channels;
    for (std::uint64_t l = 0; l < kLinesPerPage; ++l)
        channels.insert(map.decode(l * kLineBytes).channel);
    EXPECT_EQ(static_cast<int>(channels.size()),
              arccConfig().channels);
}

TEST(AddressMap, TwoPagesPerRowAsThePaperAssumes)
{
    // Section 7.1: two 4KB pages per row.  Count distinct pages whose
    // lines map to row 0 / bank 0 / rank 0.
    MemoryConfig cfg = arccConfig();
    AddressMap map(cfg, MapPolicy::HiPerf);
    std::set<std::uint64_t> pages;
    for (std::uint64_t addr = 0; addr < map.capacity();
         addr += kLineBytes) {
        DramCoord c = map.decode(addr);
        if (c.row == 0 && c.bank == 0 && c.rank == 0)
            pages.insert(addr / kPageBytes);
        if (addr > 64 * kPageBytes)
            break; // the first rows are enough.
    }
    EXPECT_EQ(pages.size(), static_cast<std::size_t>(cfg.pagesPerRow));
}

TEST(AddressMap, CapacityMatchesConfig)
{
    for (const char *name : {"baseline", "arcc", "lot9"}) {
        MemoryConfig cfg = configByName(name);
        AddressMap map(cfg, MapPolicy::HiPerf);
        EXPECT_EQ(map.capacity(), cfg.dataBytes()) << name;
    }
    // Both Table 7.1 configs are 4 GB of data.
    EXPECT_EQ(baselineConfig().dataBytes(), 4 * kGiB);
    EXPECT_EQ(arccConfig().dataBytes(), 4 * kGiB);
}

/**
 * The pairable shard groups as ChannelShardPlan found them before its
 * probe was bounded: the channels of both sub-lines of the first 4096
 * 128B pairs (or every pair of a smaller memory) unioned, groups
 * listed by their lowest channel id.
 */
std::vector<std::vector<int>>
fullProbeGroups(const AddressMap &map)
{
    std::vector<int> parent(map.channels());
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int c) {
        while (parent[c] != c)
            c = parent[c];
        return c;
    };
    std::uint64_t pairs = std::min<std::uint64_t>(
        map.capacity() / kUpgradedLineBytes, 4096);
    for (std::uint64_t p = 0; p < pairs; ++p) {
        int a = find(map.decode(p * kUpgradedLineBytes).channel);
        int b = find(
            map.decode(p * kUpgradedLineBytes + kLineBytes).channel);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }
    std::vector<std::vector<int>> groups;
    std::vector<int> groupOfRoot(map.channels(), -1);
    for (int c = 0; c < map.channels(); ++c) {
        int root = find(c);
        if (groupOfRoot[root] < 0) {
            groupOfRoot[root] = static_cast<int>(groups.size());
            groups.emplace_back();
        }
        groups[groupOfRoot[root]].push_back(c);
    }
    return groups;
}

TEST(ChannelShardPlan, BoundedProbeFindsTheFullProbesGroups)
{
    // The plan probes channels x linesPerRow pairs: every policy's
    // channel field repeats within that many lines.
    for (const char *name : {"baseline", "arcc", "arcc4", "arcc8"}) {
        for (MapPolicy policy :
             {MapPolicy::HiPerf, MapPolicy::ClosePage, MapPolicy::Base}) {
            for (int channels : {2, 4, 8}) {
                SCOPED_TRACE(std::string(name) + "/" +
                             policyName(policy) + "/" +
                             std::to_string(channels) + "ch");
                const AddressMap map(
                    withChannels(memoryConfigByName(name), channels),
                    policy);
                const ChannelShardPlan plan(map, /*pairable=*/true);
                const std::vector<std::vector<int>> oracle =
                    fullProbeGroups(map);
                ASSERT_EQ(plan.groups(), oracle.size());
                for (std::size_t g = 0; g < oracle.size(); ++g)
                    EXPECT_EQ(plan.group(g), oracle[g]);
            }
        }
    }
}

} // namespace
} // namespace arcc
