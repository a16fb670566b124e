/**
 * @file
 * Ones'-complement checksum and LOT-ECC tests, including the paper's
 * detection-guarantee caveat (Chapter 2).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/checksum.hh"
#include "ecc/lot_ecc.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

TEST(OnesComplement16, ZeroBufferChecksumsToComplementOfZero)
{
    // The Internet-checksum convention: the stored value is ~sum, so a
    // zero buffer carries 0xffff -- which is exactly what defeats a
    // stuck-at-0 device (slice AND checksum read 0, mismatch).
    std::vector<std::uint8_t> zeros(8, 0);
    EXPECT_EQ(OnesComplement16::compute(zeros), 0xffff);
    EXPECT_TRUE(OnesComplement16::verify(zeros, 0xffff));
    EXPECT_FALSE(OnesComplement16::verify(zeros, 0));
}

TEST(OnesComplement16, DetectsSingleBitFlipsInEveryPosition)
{
    Rng rng(1);
    std::vector<std::uint8_t> buf(8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::uint16_t sum = OnesComplement16::compute(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            auto copy = buf;
            copy[i] ^= static_cast<std::uint8_t>(1 << bit);
            EXPECT_FALSE(OnesComplement16::verify(copy, sum))
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(OnesComplement16, DetectsAllZerosAndAllOnesDeviceOutput)
{
    // The LOT-ECC guarantee the paper cites: a device whose output is
    // stuck all-0 or all-1 is always caught (unless the true content
    // was exactly that pattern with a matching sum).
    Rng rng(2);
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> buf(8);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        std::uint16_t sum = OnesComplement16::compute(buf);
        std::vector<std::uint8_t> zeros(8, 0), ones(8, 0xff);
        EXPECT_FALSE(OnesComplement16::verify(zeros, sum));
        EXPECT_FALSE(OnesComplement16::verify(ones, sum));
    }
}

TEST(OnesComplement16, CanAliasOnCompensatingChanges)
{
    // The caveat: two compensating word changes keep the sum -- the
    // checksum is NOT a guaranteed detector of arbitrary corruption.
    std::vector<std::uint8_t> buf = {0x00, 0x01, 0x00, 0x02};
    std::uint16_t sum = OnesComplement16::compute(buf);
    std::vector<std::uint8_t> alias = {0x00, 0x02, 0x00, 0x01};
    EXPECT_TRUE(OnesComplement16::verify(alias, sum));
}

TEST(OnesComplement16, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> odd = {0xab};
    std::vector<std::uint8_t> even = {0xab, 0x00};
    EXPECT_EQ(OnesComplement16::compute(odd),
              OnesComplement16::compute(even));
}

TEST(XorInto, IsItsOwnInverse)
{
    Rng rng(3);
    std::vector<std::uint8_t> a(16), b(16);
    for (auto &v : a)
        v = static_cast<std::uint8_t>(rng.below(256));
    for (auto &v : b)
        v = static_cast<std::uint8_t>(rng.below(256));
    auto orig = a;
    xorInto(a, b);
    xorInto(a, b);
    EXPECT_EQ(a, orig);
}

// --- LOT-ECC ----------------------------------------------------------

class LotEccSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LotEccSweep, RoundTripAndExtract)
{
    LotEcc lot(GetParam());
    Rng rng(10 + GetParam());
    for (int t = 0; t < 100; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        LotLine enc = lot.encode(line);
        EXPECT_EQ(lot.decode(enc).status, DecodeStatus::Clean);
        EXPECT_EQ(lot.extract(enc), line);
    }
}

TEST_P(LotEccSweep, SingleDeviceCorruptionIsLocalisedAndRepaired)
{
    LotEcc lot(GetParam());
    Rng rng(20 + GetParam());
    for (int t = 0; t < 200; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        LotLine enc = lot.encode(line);
        int victim =
            static_cast<int>(rng.below(lot.dataDevices() + 1));
        // Corrupt the victim slice thoroughly (decoder-style garbage).
        for (auto &b : enc.slices[victim])
            b ^= static_cast<std::uint8_t>(rng.range(1, 255));
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(res.deviceCorrected, victim);
        EXPECT_EQ(lot.extract(enc), line);
    }
}

TEST_P(LotEccSweep, StuckDeviceOutputAlwaysCaught)
{
    LotEcc lot(GetParam());
    Rng rng(30 + GetParam());
    for (int t = 0; t < 100; ++t) {
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        LotLine enc = lot.encode(line);
        int victim = static_cast<int>(rng.below(lot.dataDevices()));
        std::uint8_t stuck = rng.chance(0.5) ? 0x00 : 0xff;
        std::fill(enc.slices[victim].begin(), enc.slices[victim].end(),
                  stuck);
        // The stored checksum stays what it was; the slice no longer
        // matches it (the all-0/all-1 guarantee from Chapter 2).
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Corrected);
        EXPECT_EQ(res.deviceCorrected, victim);
        EXPECT_EQ(lot.extract(enc), line);
    }
}

TEST_P(LotEccSweep, TwoBadDevicesAreDetectedNotMiscorrected)
{
    LotEcc lot(GetParam());
    Rng rng(40 + GetParam());
    for (int t = 0; t < 200; ++t) {
        // Content bytes in [1, 254] so a stuck-at-0 / stuck-at-1 slice
        // is guaranteed to mismatch its checksum -- two *guaranteed*
        // mismatches must yield a DUE, never a reconstruction.
        std::vector<std::uint8_t> line(64);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.range(1, 254));
        LotLine enc = lot.encode(line);
        int a = static_cast<int>(rng.below(lot.dataDevices()));
        int b;
        do {
            b = static_cast<int>(rng.below(lot.dataDevices()));
        } while (b == a);
        std::fill(enc.slices[a].begin(), enc.slices[a].end(), 0x00);
        std::fill(enc.slices[b].begin(), enc.slices[b].end(), 0xff);
        LotDecodeResult res = lot.decode(enc);
        EXPECT_EQ(res.status, DecodeStatus::Detected);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, LotEccSweep,
                         ::testing::Values(8, 16));

TEST(LotEcc, RejectsBadGeometry)
{
    EXPECT_ARCC_ERROR(LotEcc(7), "8 or 16");
}

TEST(LotEcc, ChecksumAliasingCorruptionCanSlipThrough)
{
    // Build a corruption that keeps the slice checksum valid: the
    // decode honestly reports Clean even though data changed.  This is
    // the fidelity the SDC discussion relies on.
    LotEcc lot(8);
    std::vector<std::uint8_t> line(64, 0);
    line[0] = 0x00;
    line[1] = 0x01;
    line[2] = 0x00;
    line[3] = 0x02;
    LotLine enc = lot.encode(line);
    std::swap(enc.slices[0][1], enc.slices[0][3]); // compensating swap.
    EXPECT_EQ(lot.decode(enc).status, DecodeStatus::Clean);
    EXPECT_NE(lot.extract(enc), line);
}

} // namespace
} // namespace arcc
