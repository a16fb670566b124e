/**
 * @file
 * Fault-injection matrix tests: cell layout, control rows, capability
 * properties per codec family (chipkill bursts for the RS schemes,
 * SECDED's single-bit ceiling, BCH's t-bit floor), the exhaustive-cell
 * contract, and hash sensitivity.  Thread-count determinism and the
 * golden hash live in tests/test_determinism.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/sim_engine.hh"
#include "faults/fault_matrix.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

/** Run a one-codec campaign on a small private engine. */
FaultMatrixResult
runFor(const std::string &codec,
       std::uint64_t trials_per_cell = 64)
{
    FaultMatrixConfig cfg;
    cfg.codecs = {codec};
    cfg.trialsPerCell = trials_per_cell;
    cfg.exhaustiveLimit = 640;
    cfg.seed = 20130223;
    SimEngine engine(SimEngine::Options{2});
    return runFaultMatrix(cfg, &engine);
}

const FaultCell &
cell(const FaultMatrixResult &r, FailMode mode, int errors)
{
    for (const FaultCell &c : r.cells)
        if (c.mode == mode && c.errors == errors)
            return c;
    ADD_FAILURE() << "no cell " << toString(mode) << "/" << errors;
    static FaultCell none;
    return none;
}

TEST(FaultMatrix, CellLayoutFollowsTraits)
{
    // arcc-relaxed corrects 1 symbol -> error axis 1..3 in both
    // injected modes plus the control row.
    FaultMatrixResult r = runFor("arcc-relaxed");
    EXPECT_EQ(r.cells.size(), 1u + 3u + 3u);
    EXPECT_EQ(r.cells[0].mode, FailMode::None);
    EXPECT_EQ(r.cells[0].errors, 0);
    EXPECT_EQ(r.cells[0].symbolBits, 8);
    EXPECT_EQ(r.cells[0].family, "rs");

    // bch512-t4 corrects 4 bits -> 1..6.
    FaultMatrixResult b = runFor("bch512-t4", 16);
    EXPECT_EQ(b.cells.size(), 1u + 6u + 6u);
    EXPECT_EQ(b.cells[1].symbolBits, 1);

    // Every cell's counters add up to its trial count.
    for (const FaultCell &c : r.cells) {
        EXPECT_EQ(c.clean + c.corrected + c.miscorrected + c.due +
                      c.sdc,
                  c.trials);
    }
}

TEST(FaultMatrix, ControlRowIsAllClean)
{
    for (const std::string &key :
         {std::string("arcc-relaxed"), std::string("hsiao72"),
          std::string("bch512-t2"), std::string("lot9")}) {
        FaultMatrixResult r = runFor(key, 32);
        const FaultCell &c = cell(r, FailMode::None, 0);
        EXPECT_EQ(c.clean, c.trials) << key;
        EXPECT_EQ(c.sdc, 0u) << key;
        EXPECT_EQ(c.due, 0u) << key;
    }
}

TEST(FaultMatrix, RsBurstsAreChipkill)
{
    // The paper's property: any number of symbol errors confined to
    // one device costs at most one symbol per codeword, so every RS
    // burst cell corrects everything -- no DUE, no miscorrection, no
    // SDC.  This is the matrix-level restatement of Figure 2.1.
    for (const std::string &key :
         {std::string("sccdcd"), std::string("arcc-relaxed"),
          std::string("arcc-upgraded")}) {
        FaultMatrixResult r = runFor(key);
        for (const FaultCell &c : r.cells) {
            if (c.mode != FailMode::Burst)
                continue;
            EXPECT_EQ(c.corrected, c.trials)
                << key << " burst e=" << c.errors;
            EXPECT_EQ(c.miscorrected, 0u) << key;
            EXPECT_EQ(c.due, 0u) << key;
            EXPECT_EQ(c.sdc, 0u) << key;
        }
    }
}

TEST(FaultMatrix, SecdedBurstsAreNotChipkill)
{
    // The contrast row: two or more bit errors in one SECDED device
    // can land in one 72-bit word, which SECDED can only detect --
    // and must never silently corrupt.
    FaultMatrixResult r = runFor("hsiao72", 256);
    const FaultCell &b2 = cell(r, FailMode::Burst, 2);
    EXPECT_GT(b2.due, 0u);
    EXPECT_EQ(b2.sdc, 0u);
    EXPECT_EQ(b2.miscorrected, 0u);

    // Single-bit cells stay perfect (exhaustive over all 576 wire
    // bits x both modes).
    for (FailMode m : {FailMode::Random, FailMode::Burst}) {
        const FaultCell &c = cell(r, m, 1);
        EXPECT_TRUE(c.exhaustive);
        EXPECT_EQ(c.corrected, c.trials);
    }
}

TEST(FaultMatrix, BchCorrectsEverythingUpToT)
{
    FaultMatrixResult r = runFor("bch512-t4", 48);
    for (const FaultCell &c : r.cells) {
        if (c.errors == 0 || c.errors > 4)
            continue;
        // Every injected error count <= t recovers the data: flips in
        // the wire pad decode Clean with intact data, the rest
        // correct.  Nothing is lost or silently corrupted.
        EXPECT_EQ(c.clean + c.corrected, c.trials)
            << toString(c.mode) << " e=" << c.errors;
        EXPECT_EQ(c.miscorrected, 0u);
        EXPECT_EQ(c.due, 0u);
        EXPECT_EQ(c.sdc, 0u);
    }
}

TEST(FaultMatrix, ExhaustiveCellsEnumerateEveryCombination)
{
    // arcc-relaxed: 18 devices x 4 bytes = 72 symbol positions.
    FaultMatrixResult r = runFor("arcc-relaxed");
    const FaultCell &r1 = cell(r, FailMode::Random, 1);
    EXPECT_TRUE(r1.exhaustive);
    EXPECT_EQ(r1.trials, 72u); // C(72, 1).
    const FaultCell &b2 = cell(r, FailMode::Burst, 2);
    EXPECT_TRUE(b2.exhaustive);
    EXPECT_EQ(b2.trials, 18u * 6u); // devices x C(4, 2).
    // C(72, 2) = 2556 > limit: stratified.
    const FaultCell &r2 = cell(r, FailMode::Random, 2);
    EXPECT_FALSE(r2.exhaustive);
    EXPECT_EQ(r2.trials, 64u);
}

TEST(FaultMatrix, HashIsSensitiveToOutcomesAndConfig)
{
    FaultMatrixResult a = runFor("arcc-relaxed");
    FaultMatrixResult b = runFor("arcc-relaxed");
    EXPECT_EQ(a.hash(), b.hash()); // Reproducible.

    FaultMatrixResult other_seed = [&] {
        FaultMatrixConfig cfg;
        cfg.codecs = {"arcc-relaxed"};
        cfg.trialsPerCell = 64;
        cfg.exhaustiveLimit = 640;
        cfg.seed = 20130224;
        SimEngine engine(SimEngine::Options{2});
        return runFaultMatrix(cfg, &engine);
    }();
    EXPECT_NE(a.hash(), other_seed.hash());

    FaultMatrixResult other_codec = runFor("dcs");
    EXPECT_NE(a.hash(), other_codec.hash());

    // Tampering with a counter changes the digest.
    FaultMatrixResult tampered = runFor("arcc-relaxed");
    tampered.cells[1].corrected += 1;
    EXPECT_NE(a.hash(), tampered.hash());
}

TEST(FaultMatrixDeathTest, UnknownCodecKeyIsFatal)
{
    FaultMatrixConfig cfg;
    cfg.codecs = {"no-such-codec"};
    EXPECT_ARCC_ERROR(runFaultMatrix(cfg), "unknown codec");
}

} // namespace
} // namespace arcc
