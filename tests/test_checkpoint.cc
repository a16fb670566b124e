/**
 * @file
 * Checkpoint-log fault-injection suite: round trips, torn-tail
 * truncation at every byte of the final record, bit flips in payload
 * / CRC / length / header bytes, and the identity checks.  The
 * invariant under test: recovery lands on the last sealed epoch or
 * fails fatally -- it never hands back state derived from a corrupt
 * record.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "campaign/checkpoint.hh"
#include "common/crc32c.hh"
#include "common/rng.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

/** Seed for the randomized corruption choices; logged so a failure
 *  reproduces. */
constexpr std::uint64_t kFaultSeed = 20130223;

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_ckpt." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

const CheckpointIdentity kIdentity{0x1234abcd5678ef00ULL, 42};

/** Deterministic epoch payload: distinct per epoch, multi-byte. */
std::vector<std::uint8_t>
epochPayload(int epoch)
{
    std::vector<std::uint8_t> p(24 + epoch);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<std::uint8_t>(epoch * 131 + i * 7);
    return p;
}

/** Write a fresh log with `epochs` sealed records. */
void
buildLog(const std::string &path, int epochs)
{
    CheckpointWriter writer = CheckpointWriter::create(path, kIdentity);
    for (int e = 0; e < epochs; ++e) {
        auto p = epochPayload(e);
        writer.append(p);
    }
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good());
}

/** Offset one past frame `n` (0 = header) in a well-formed log. */
std::size_t
frameEnd(const std::vector<std::uint8_t> &bytes, int n)
{
    std::size_t off = 0;
    for (int i = 0; i <= n; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(bytes[off]) |
            (static_cast<std::uint32_t>(bytes[off + 1]) << 8) |
            (static_cast<std::uint32_t>(bytes[off + 2]) << 16) |
            (static_cast<std::uint32_t>(bytes[off + 3]) << 24);
        off += kFrameOverheadBytes + len;
    }
    return off;
}

TEST(Checkpoint, CreateAppendRecoverRoundTrip)
{
    TempFile f(tempPath("roundtrip"));
    buildLog(f.path, 3);

    std::vector<std::vector<std::uint8_t>> seen;
    CheckpointRecovery rec = recoverCheckpoint(
        f.path, kIdentity,
        [&](std::span<const std::uint8_t> payload) {
            seen.emplace_back(payload.begin(), payload.end());
        });

    EXPECT_FALSE(rec.fresh);
    EXPECT_EQ(rec.records, 3u);
    EXPECT_EQ(rec.tornBytes, 0u);
    EXPECT_EQ(rec.identity.configHash, kIdentity.configHash);
    EXPECT_EQ(rec.identity.seed, kIdentity.seed);
    ASSERT_EQ(seen.size(), 3u);
    for (int e = 0; e < 3; ++e)
        EXPECT_EQ(seen[e], epochPayload(e)) << e;
    EXPECT_EQ(rec.lastPayload, epochPayload(2));
    EXPECT_EQ(rec.validBytes, readFile(f.path).size());
}

TEST(Checkpoint, MissingFileIsFresh)
{
    CheckpointRecovery rec =
        recoverCheckpoint(tempPath("never-created"), kIdentity);
    EXPECT_TRUE(rec.fresh);
    EXPECT_EQ(rec.records, 0u);
}

TEST(Checkpoint, TornHeaderStubStartsFresh)
{
    // SIGKILL between create() and the header seal leaves a stub
    // shorter than one header frame: nothing sealed was lost, so the
    // campaign starts over instead of dying.
    TempFile f(tempPath("stub"));
    buildLog(f.path, 1);
    auto bytes = readFile(f.path);
    const std::size_t header_frame =
        kFrameOverheadBytes + kHeaderPayloadBytes;
    for (std::size_t cut : {std::size_t{1}, header_frame / 2,
                            header_frame - 1}) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        writeFile(f.path, {bytes.begin(), bytes.begin() + cut});
        CheckpointRecovery rec = recoverCheckpoint(f.path, kIdentity);
        EXPECT_TRUE(rec.fresh);
        // resume() on a fresh recovery rewrites a clean log.
        CheckpointWriter writer =
            CheckpointWriter::resume(f.path, rec);
        auto p = epochPayload(0);
        writer.append(p);
    }
    CheckpointRecovery rec = recoverCheckpoint(f.path, kIdentity);
    EXPECT_EQ(rec.records, 1u);
}

TEST(Checkpoint, TruncationAtEveryByteOfTheFinalRecordRecovers)
{
    // The torn-append property: cut the file anywhere in the final
    // record (including exactly at its start) and recovery must land
    // on the previous sealed epoch; resuming truncates the tail and
    // appending re-seals the lost epoch.
    TempFile f(tempPath("torn-sweep"));
    buildLog(f.path, 3);
    const auto whole = readFile(f.path);
    const std::size_t prefix = frameEnd(whole, 2); // header + 2 epochs
    ASSERT_LT(prefix, whole.size());

    for (std::size_t cut = prefix; cut < whole.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        writeFile(f.path, {whole.begin(), whole.begin() + cut});

        CheckpointRecovery rec = recoverCheckpoint(f.path, kIdentity);
        EXPECT_FALSE(rec.fresh);
        EXPECT_EQ(rec.records, 2u);
        EXPECT_EQ(rec.lastPayload, epochPayload(1));
        EXPECT_EQ(rec.validBytes, prefix);
        EXPECT_EQ(rec.tornBytes, cut - prefix);

        CheckpointWriter writer = CheckpointWriter::resume(f.path, rec);
        auto p = epochPayload(2);
        writer.append(p);
        EXPECT_EQ(readFile(f.path), whole); // byte-identical again.
    }
}

TEST(Checkpoint, BitFlipsInFinalPayloadOrCrcAreTornTail)
{
    // Random single-bit flips anywhere past the final record's length
    // word: the CRC catches them, and because the damage is at the
    // tail, recovery treats it as torn and lands on the prior epoch.
    TempFile f(tempPath("flip-tail"));
    buildLog(f.path, 3);
    const auto whole = readFile(f.path);
    const std::size_t prefix = frameEnd(whole, 2);

    Rng rng(kFaultSeed);
    SCOPED_TRACE("kFaultSeed=" + std::to_string(kFaultSeed));
    for (int round = 0; round < 64; ++round) {
        const std::size_t lo = prefix + 4; // skip the length word.
        const std::size_t byte = lo + static_cast<std::size_t>(
            rng.below(whole.size() - lo));
        const int bit = static_cast<int>(rng.below(8));
        SCOPED_TRACE("round=" + std::to_string(round) + " byte=" +
                     std::to_string(byte) + " bit=" +
                     std::to_string(bit));

        auto bytes = whole;
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        writeFile(f.path, bytes);

        CheckpointRecovery rec = recoverCheckpoint(f.path, kIdentity);
        EXPECT_EQ(rec.records, 2u);
        EXPECT_EQ(rec.lastPayload, epochPayload(1));
        EXPECT_EQ(rec.tornBytes, whole.size() - prefix);
    }
}

TEST(CheckpointDeathTest, FinalLengthWordCorruptionNeverResumesCorrupt)
{
    // Flipping bits of the final record's length word either grows
    // the frame past EOF (torn tail, recover to the prior epoch) or
    // shrinks it so sealed bytes follow an invalid frame (fatal).
    // Both outcomes are safe; silently resuming epoch 2 is not.
    TempFile f(tempPath("flip-len"));
    buildLog(f.path, 3);
    const auto whole = readFile(f.path);
    const std::size_t prefix = frameEnd(whole, 2);
    const std::uint32_t true_len =
        static_cast<std::uint32_t>(epochPayload(2).size());

    for (int bit = 0; bit < 32; ++bit) {
        SCOPED_TRACE("bit=" + std::to_string(bit));
        auto bytes = whole;
        bytes[prefix + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        writeFile(f.path, bytes);

        const std::uint32_t flipped = true_len ^ (1u << bit);
        if (flipped < true_len) {
            EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity),
                              "refusing to resume from a corrupt "
                              "checkpoint");
        } else {
            CheckpointRecovery rec =
                recoverCheckpoint(f.path, kIdentity);
            EXPECT_EQ(rec.records, 2u);
            EXPECT_EQ(rec.lastPayload, epochPayload(1));
        }
    }
}

TEST(CheckpointDeathTest, MidFileCorruptionIsFatal)
{
    // A bad CRC with sealed data after it cannot be a torn append:
    // recovery must refuse rather than skip or truncate sealed
    // epochs.
    TempFile f(tempPath("flip-middle"));
    buildLog(f.path, 3);
    const auto whole = readFile(f.path);
    const std::size_t begin = frameEnd(whole, 1); // epoch-1 frame
    const std::size_t end = frameEnd(whole, 2);

    Rng rng(kFaultSeed);
    SCOPED_TRACE("kFaultSeed=" + std::to_string(kFaultSeed));
    for (int round = 0; round < 16; ++round) {
        // Skip the length word: shrinking/growing the middle frame is
        // covered by its own invalid-frame scan, flips past it hit
        // CRC or payload.
        const std::size_t byte = begin + 4 + static_cast<std::size_t>(
            rng.below(end - begin - 4));
        const int bit = static_cast<int>(rng.below(8));
        SCOPED_TRACE("round=" + std::to_string(round) + " byte=" +
                     std::to_string(byte) + " bit=" +
                     std::to_string(bit));
        auto bytes = whole;
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        writeFile(f.path, bytes);
        EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity),
                          "refusing to resume from a corrupt checkpoint");
    }
}

TEST(CheckpointDeathTest, HeaderCorruptionIsFatal)
{
    TempFile f(tempPath("bad-header"));

    // A flipped magic byte breaks the header frame's CRC; with a
    // sealed epoch after it this cannot be a torn append, so
    // recovery refuses the whole file.
    buildLog(f.path, 1);
    auto bytes = readFile(f.path);
    bytes[kFrameOverheadBytes] ^= 0xff; // first magic byte
    writeFile(f.path, bytes);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity), "corrupt");

    // A header-only file with a broken header is equally dead: the
    // invalid frame reaches EOF, but there is no sealed header to
    // fall back on, and a file this large is not a creation stub.
    buildLog(f.path, 0);
    bytes = readFile(f.path);
    bytes[kFrameOverheadBytes] ^= 0xff;
    writeFile(f.path, bytes);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity), "corrupt header");

    // A valid log for a different campaign: fatal, never overwritten.
    buildLog(f.path, 2);
    CheckpointIdentity other = kIdentity;
    other.configHash ^= 1;
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, other), "different campaign");
    other = kIdentity;
    other.seed ^= 1;
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, other), "different campaign");
}

// A directory opens with fopen() but fails to read: recovery throws
// from inside its read loop, and the handle must not leak.
TEST(CheckpointDeathTest, UnreadableLogIsFatalAndLeaksNoDescriptor)
{
    const std::string dir = tempPath("is-a-directory");
    std::filesystem::create_directory(dir);
    const long before = test::openFdCount();
    for (int i = 0; i < 8; ++i) {
        EXPECT_ARCC_ERROR(recoverCheckpoint(dir, kIdentity),
                          "read failed");
    }
    if (before >= 0) {
        EXPECT_EQ(test::openFdCount(), before);
    }
    std::filesystem::remove(dir);
}

TEST(CheckpointDeathTest, OversizedAppendIsFatal)
{
    TempFile f(tempPath("oversize"));
    EXPECT_ARCC_ERROR(
        {
            CheckpointWriter w =
                CheckpointWriter::create(f.path, kIdentity);
            std::vector<std::uint8_t> huge((64u << 20) + 1);
            w.append(huge);
        },
        "format ceiling");
}

// --- the v2 worker stamp and version gates -----------------------------

/** Byte offset of a header-payload field within the file (the header
 *  frame's payload starts after the length + CRC words). */
constexpr std::size_t kVersionOff = kFrameOverheadBytes + 8;
constexpr std::size_t kWorkerIdOff = kFrameOverheadBytes + 28;

/** Patch `bytes[off..]` in the header payload and re-seal the header
 *  CRC, so the damage models a buggy writer rather than line noise. */
void
patchHeader(std::vector<std::uint8_t> &bytes, std::size_t off,
            std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        bytes[off + i] =
            static_cast<std::uint8_t>(value >> (8 * i));
    const std::uint32_t len =
        static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
    const std::uint32_t crc = crc32c(
        {bytes.data() + kFrameOverheadBytes, len});
    for (int i = 0; i < 4; ++i)
        bytes[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

/** A stamped multi-worker identity (worker 1 of 4, trials
 *  [512, 1024)). */
CheckpointIdentity
stampedIdentity()
{
    CheckpointIdentity id = kIdentity;
    id.workerId = 1;
    id.workerCount = 4;
    id.beginTrial = 512;
    id.endTrial = 1024;
    return id;
}

/** Hand-craft a sealed v1 (pre-stamp) log: header + `epochs`
 *  records, exactly as the pre-scale-out writer laid them out. */
void
buildV1Log(const std::string &path, int epochs)
{
    std::vector<std::uint8_t> bytes;
    auto seal = [&](const std::vector<std::uint8_t> &payload) {
        const auto len = static_cast<std::uint32_t>(payload.size());
        const std::uint32_t crc =
            crc32c({payload.data(), payload.size()});
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
        bytes.insert(bytes.end(), payload.begin(), payload.end());
    };

    std::vector<std::uint8_t> header;
    header.insert(header.end(), std::begin(kCheckpointMagic),
                  std::end(kCheckpointMagic));
    auto put32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto put64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put32(1); // format version
    put64(kIdentity.configHash);
    put64(kIdentity.seed);
    ASSERT_EQ(header.size(), kHeaderPayloadBytesV1);
    seal(header);
    for (int e = 0; e < epochs; ++e)
        seal(epochPayload(e));
    writeFile(path, bytes);
}

TEST(Checkpoint, WorkerStampRoundTrips)
{
    TempFile f(tempPath("stamp"));
    const CheckpointIdentity stamped = stampedIdentity();
    {
        CheckpointWriter w =
            CheckpointWriter::create(f.path, stamped);
        auto p = epochPayload(0);
        w.append(p);
    }
    CheckpointRecovery rec = recoverCheckpoint(f.path, stamped);
    EXPECT_FALSE(rec.fresh);
    EXPECT_EQ(rec.records, 1u);
    EXPECT_EQ(rec.version, kCheckpointVersion);
    EXPECT_EQ(rec.identity.workerId, 1u);
    EXPECT_EQ(rec.identity.workerCount, 4u);
    EXPECT_EQ(rec.identity.beginTrial, 512u);
    EXPECT_EQ(rec.identity.endTrial, 1024u);
}

TEST(Checkpoint, V1LogReadsAsTheWholeRangeSingleWorker)
{
    // A pre-stamp log keeps working after the version bump -- but
    // only as worker 0 of 1 over the whole range, the only thing a
    // v1 writer could have meant.
    TempFile f(tempPath("v1"));
    buildV1Log(f.path, 2);
    CheckpointIdentity expected = kIdentity; // defaults: 0 of 1
    expected.endTrial = 2048;
    CheckpointRecovery rec = recoverCheckpoint(f.path, expected);
    EXPECT_FALSE(rec.fresh);
    EXPECT_EQ(rec.records, 2u);
    EXPECT_EQ(rec.version, 1u);
    // The identity adopts the expected stamp (the file carries none).
    EXPECT_EQ(rec.identity.endTrial, 2048u);
    EXPECT_EQ(rec.lastPayload, epochPayload(1));
}

TEST(CheckpointDeathTest, V1LogUnderAMultiWorkerExpectationIsFatal)
{
    TempFile f(tempPath("v1-multi"));
    buildV1Log(f.path, 1);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, stampedIdentity()),
                      "whole-range single worker");
}

TEST(CheckpointDeathTest, SwappedWorkerLogsAreFatal)
{
    // Worker 1's log offered as worker 2's: same campaign, same
    // fleet, wrong slice -- the classic operator mistake the stamp
    // exists to catch.
    TempFile f(tempPath("swapped"));
    {
        CheckpointWriter w =
            CheckpointWriter::create(f.path, stampedIdentity());
        auto p = epochPayload(0);
        w.append(p);
    }
    CheckpointIdentity other = stampedIdentity();
    other.workerId = 2;
    other.beginTrial = 1024;
    other.endTrial = 1536;
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, other),
                      "worker stamp mismatch");

    // A different fleet size over the same slice is equally fatal.
    other = stampedIdentity();
    other.workerCount = 8;
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, other),
                      "worker stamp mismatch");
}

TEST(CheckpointDeathTest, CorruptedStampWithValidCrcIsFatal)
{
    // Rewrite the worker-id field and re-seal the CRC: framing is
    // pristine, the stamp lies.  Recovery must still refuse -- the
    // identity check is what stands between a renamed/doctored log
    // and a silently wrong merge.
    TempFile f(tempPath("stamp-forge"));
    {
        CheckpointWriter w =
            CheckpointWriter::create(f.path, stampedIdentity());
        auto p = epochPayload(0);
        w.append(p);
    }
    auto bytes = readFile(f.path);
    patchHeader(bytes, kWorkerIdOff, 3); // claims worker 3, range of 1
    writeFile(f.path, bytes);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, stampedIdentity()),
                      "worker stamp mismatch");
}

TEST(CheckpointDeathTest, VersionNewerThanBinaryIsFatal)
{
    // Regression: a log written by a future format version must fail
    // with the explicit "newer than binary" diagnostic, not a generic
    // identity mismatch (and never be truncated or overwritten).
    TempFile f(tempPath("v3"));
    buildLog(f.path, 1);
    auto bytes = readFile(f.path);
    patchHeader(bytes, kVersionOff, kCheckpointVersion + 1);
    writeFile(f.path, bytes);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity),
                      "log version newer than binary");
}

TEST(CheckpointDeathTest, VersionOlderThanSupportedIsFatal)
{
    TempFile f(tempPath("v0"));
    buildLog(f.path, 1);
    auto bytes = readFile(f.path);
    patchHeader(bytes, kVersionOff, 0);
    writeFile(f.path, bytes);
    EXPECT_ARCC_ERROR(recoverCheckpoint(f.path, kIdentity),
                      "oldest supported version");
}

} // namespace
} // namespace arcc
