/**
 * @file
 * Trace capture / replay tests: the hardened text parser (CRLF,
 * whitespace, comment-only files, every fatal() path), the binary
 * format and its converters, the streaming TraceStream reader, and
 * end-to-end runs of the system simulator on replayed traces.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "cpu/system_sim.hh"
#include "cpu/trace.hh"
#include "expect_error.hh"

namespace arcc
{
namespace
{

/** Unique temp-file path (ctest -j runs sibling tests concurrently). */
std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_trace." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

/** RAII deleter so failed assertions do not leak temp files. */
struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

std::vector<CoreWorkload::Access>
syntheticAccesses(int n, std::uint64_t seed)
{
    CoreWorkload wl(benchmarkProfile("swim"), 1ULL << 30, 0, seed);
    std::vector<CoreWorkload::Access> out;
    for (int i = 0; i < n; ++i)
        out.push_back(wl.next());
    return out;
}

void
expectSameAccesses(const std::vector<CoreWorkload::Access> &a,
                   const std::vector<CoreWorkload::Access> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].isWrite, b[i].isWrite) << i;
        EXPECT_EQ(a[i].instrGap, b[i].instrGap) << i;
    }
}

// --- text format -------------------------------------------------------

TEST(Trace, WriteParseRoundTrip)
{
    std::ostringstream out;
    TraceWriter writer(out);
    auto original = syntheticAccesses(500, 5);
    for (const auto &a : original)
        writer.append(a);
    EXPECT_EQ(writer.count(), 500u);

    std::istringstream in(out.str());
    expectSameAccesses(parseTrace(in), original);
}

TEST(Trace, CommentsAndBlankLinesAreSkipped)
{
    std::istringstream in(
        "# a comment\n\n1000 R 5\n# another\n2040 W 17\n");
    auto parsed = parseTrace(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].addr, 0x1000u);
    EXPECT_FALSE(parsed[0].isWrite);
    EXPECT_EQ(parsed[0].instrGap, 5u);
    EXPECT_EQ(parsed[1].addr, 0x2040u);
    EXPECT_TRUE(parsed[1].isWrite);
}

TEST(Trace, ToleratesCrlfWhitespaceAndIndentedComments)
{
    // A Windows-edited trace: CRLF endings, trailing whitespace,
    // indented fields, whitespace-only lines, indented comments, and
    // tab separators all parse to the same accesses.
    std::istringstream in("1000 R 5\r\n"
                          "2040 W 17   \n"
                          "   \t \r\n"
                          "  # indented comment\r\n"
                          "\t3080\tr\t2\r\n"
                          "   40c0 w 9\n");
    auto parsed = parseTrace(in);
    ASSERT_EQ(parsed.size(), 4u);
    EXPECT_EQ(parsed[0].addr, 0x1000u);
    EXPECT_EQ(parsed[0].instrGap, 5u);
    EXPECT_EQ(parsed[1].addr, 0x2040u);
    EXPECT_TRUE(parsed[1].isWrite);
    EXPECT_EQ(parsed[2].addr, 0x3080u);
    EXPECT_FALSE(parsed[2].isWrite);
    EXPECT_EQ(parsed[3].addr, 0x40c0u);
    EXPECT_EQ(parsed[3].instrGap, 9u);
}

TEST(Trace, CommentOnlyFileParsesToNothing)
{
    std::istringstream in("# header\n\n   \n# only comments here\r\n");
    EXPECT_TRUE(parseTrace(in).empty());
}

TEST(TraceDeathTest, MalformedLinesAreFatal)
{
    std::istringstream bad1("zzz\n");
    EXPECT_ARCC_ERROR(parseTrace(bad1), "malformed");
    std::istringstream bad2("1000 X 5\n");
    EXPECT_ARCC_ERROR(parseTrace(bad2), "not R or W");
    std::istringstream bad3("zzz R 5\n");
    EXPECT_ARCC_ERROR(parseTrace(bad3), "not a hex address");
    std::istringstream bad4("1000 R 5 junk\n");
    EXPECT_ARCC_ERROR(parseTrace(bad4), "trailing garbage");
    std::istringstream bad5("1000 R -5\n");
    EXPECT_ARCC_ERROR(parseTrace(bad5), "not an instruction gap");
    std::istringstream bad6("1000 R gap\n");
    EXPECT_ARCC_ERROR(parseTrace(bad6), "not an instruction gap");
    // strtoull would silently *wrap* a signed address to a huge
    // value; the parser must reject it instead.
    std::istringstream bad7("-1000 R 5\n");
    EXPECT_ARCC_ERROR(parseTrace(bad7), "not a hex address");
}

TEST(TraceDeathTest, WriteFailuresAreFatal)
{
    // A stream that went bad mid-capture (disk full) must be
    // diagnosed at the failing append, not discovered as a truncated
    // file at replay time.
    std::ostringstream text;
    TraceWriter tw(text);
    text.setstate(std::ios::badbit);
    EXPECT_ARCC_ERROR(tw.append({}), "write failed");

    std::ostringstream bin;
    BinaryTraceWriter bw(bin);
    bin.setstate(std::ios::badbit);
    EXPECT_ARCC_ERROR(bw.append({}), "write failed");

    EXPECT_ARCC_ERROR(captureSyntheticTrace("swim", 1ULL << 30, 0, 1, 1000,
                                            "/nonexistent/capture.bin"),
                      "cannot create");
}

TEST(TraceDeathTest, UnopenableFileIsFatal)
{
    EXPECT_ARCC_ERROR(loadTrace("/nonexistent/trace.txt"), "cannot open");
}

TEST(TraceDeathTest, EmptyReplayIsFatal)
{
    EXPECT_ARCC_ERROR(TraceReplay{{}}, "empty trace");
}

// --- binary format -----------------------------------------------------

TEST(BinaryTrace, RoundTripsThroughTextConverters)
{
    auto original = syntheticAccesses(700, 9);
    std::ostringstream text1;
    TraceWriter tw(text1);
    for (const auto &a : original)
        tw.append(a);

    // text -> binary -> text is bit-identical (canonical text in,
    // canonical text out), and the binary parses to the same accesses.
    std::istringstream text_in(text1.str());
    std::ostringstream bin;
    EXPECT_EQ(textTraceToBinary(text_in, bin), 700u);
    std::istringstream bin_in(bin.str());
    std::ostringstream text2;
    EXPECT_EQ(binaryTraceToText(bin_in, text2), 700u);
    EXPECT_EQ(text1.str(), text2.str());
}

TEST(BinaryTrace, WriterProducesFixedSizeRecords)
{
    std::ostringstream out;
    BinaryTraceWriter writer(out);
    auto accesses = syntheticAccesses(100, 3);
    for (const auto &a : accesses)
        writer.append(a);
    EXPECT_EQ(writer.count(), 100u);
    EXPECT_EQ(out.str().size(),
              sizeof kTraceMagic + 100 * kTraceRecordBytes);
    EXPECT_EQ(out.str().compare(0, 8, "ARCCTRC1"), 0);
}

TEST(BinaryTrace, ExtremeFieldValuesSurvive)
{
    CoreWorkload::Access a;
    a.addr = ~0ULL;
    a.instrGap = (1ULL << 63) - 1;
    a.isWrite = true;
    std::ostringstream bin;
    BinaryTraceWriter writer(bin);
    writer.append(a);
    std::istringstream in(bin.str());
    std::ostringstream text;
    EXPECT_EQ(binaryTraceToText(in, text), 1u);
    std::istringstream text_in(text.str());
    auto parsed = parseTrace(text_in);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].addr, a.addr);
    EXPECT_EQ(parsed[0].instrGap, a.instrGap);
    EXPECT_TRUE(parsed[0].isWrite);
}

TEST(BinaryTraceDeathTest, OversizedGapIsFatal)
{
    CoreWorkload::Access a;
    a.instrGap = 1ULL << 63; // collides with the write flag.
    std::ostringstream bin;
    BinaryTraceWriter writer(bin);
    EXPECT_ARCC_ERROR(writer.append(a), "does not fit");
}

TEST(BinaryTraceDeathTest, BadMagicAndTruncationAreFatal)
{
    std::istringstream not_binary("1000 R 5\n");
    std::ostringstream text;
    EXPECT_ARCC_ERROR(binaryTraceToText(not_binary, text), "magic");

    std::ostringstream bin;
    BinaryTraceWriter writer(bin);
    writer.append({});
    std::istringstream truncated(bin.str().substr(
        0, sizeof kTraceMagic + kTraceRecordBytes / 2));
    EXPECT_ARCC_ERROR(binaryTraceToText(truncated, text), "truncated");
}

TEST(BinaryTrace, FileConvertersAndDetection)
{
    auto original = syntheticAccesses(256, 11);
    TempFile text(tempPath("convert.txt"));
    TempFile bin(tempPath("convert.bin"));
    TempFile back(tempPath("convert.back.txt"));
    {
        std::ofstream out(text.path);
        TraceWriter writer(out);
        for (const auto &a : original)
            writer.append(a);
    }
    EXPECT_FALSE(isBinaryTraceFile(text.path));
    EXPECT_EQ(textTraceFileToBinary(text.path, bin.path), 256u);
    EXPECT_TRUE(isBinaryTraceFile(bin.path));
    EXPECT_EQ(binaryTraceFileToText(bin.path, back.path), 256u);
    expectSameAccesses(loadTrace(back.path), original);
}

// --- TraceReplay / TraceStream -----------------------------------------

TEST(TraceReplay, LoopsAtTheEnd)
{
    std::vector<CoreWorkload::Access> v(3);
    v[0].addr = 0;
    v[1].addr = 64;
    v[2].addr = 128;
    TraceReplay replay(v);
    for (int lap = 0; lap < 3; ++lap)
        for (std::uint64_t a : {0ULL, 64ULL, 128ULL})
            EXPECT_EQ(replay.next().addr, a);
    EXPECT_EQ(replay.laps(), 3u);
}

TEST(TraceStream, MatchesTraceReplayAtEveryChunkSize)
{
    // The streaming reader is access-for-access and lap-for-lap
    // identical to the in-memory replay, including at chunk sizes
    // that straddle the wrap point mid-buffer.
    auto original = syntheticAccesses(97, 13);
    TempFile bin(tempPath("stream.bin"));
    {
        std::ofstream out(bin.path, std::ios::binary);
        BinaryTraceWriter writer(out);
        for (const auto &a : original)
            writer.append(a);
    }
    for (std::size_t chunk : {std::size_t{1}, std::size_t{8},
                              std::size_t{97}, std::size_t{1000}}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        TraceReplay replay(original);
        TraceStream stream(bin.path, chunk);
        EXPECT_EQ(stream.records(), original.size());
        for (int i = 0; i < 300; ++i) {
            CoreWorkload::Access a = replay.next();
            CoreWorkload::Access b = stream.next();
            EXPECT_EQ(a.addr, b.addr) << i;
            EXPECT_EQ(a.isWrite, b.isWrite) << i;
            EXPECT_EQ(a.instrGap, b.instrGap) << i;
            EXPECT_EQ(replay.laps(), stream.laps()) << i;
        }
        EXPECT_EQ(stream.laps(), 3u);
    }
}

TEST(TraceStreamDeathTest, BadInputsAreFatal)
{
    EXPECT_ARCC_ERROR(TraceStream("/nonexistent/trace.bin"), "cannot open");

    TempFile text(tempPath("text_as_bin.txt"));
    {
        std::ofstream out(text.path);
        out << "1000 R 5\n";
    }
    EXPECT_ARCC_ERROR(TraceStream(text.path), "magic");

    TempFile empty(tempPath("empty.bin"));
    {
        std::ofstream out(empty.path, std::ios::binary);
        BinaryTraceWriter writer(out); // magic, zero records.
    }
    EXPECT_ARCC_ERROR(TraceStream(empty.path), "no accesses");

    TempFile truncated(tempPath("truncated.bin"));
    {
        std::ofstream out(truncated.path, std::ios::binary);
        BinaryTraceWriter writer(out);
        writer.append({});
        out.write("x", 1); // half a record's worth of trailing junk.
    }
    EXPECT_ARCC_ERROR(TraceStream(truncated.path), "truncated");
}

TEST(TraceStreamDeathTest, TornFinalRecordIsFatalAtEveryOffset)
{
    // A crash mid-append can cut the final record at any byte; every
    // cut must be diagnosed as truncation up front, never replayed as
    // a partial record.
    for (std::size_t cut = 1; cut < kTraceRecordBytes; ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        TempFile bin(tempPath("torn." + std::to_string(cut)));
        {
            std::ofstream out(bin.path, std::ios::binary);
            BinaryTraceWriter writer(out);
            for (const auto &a : syntheticAccesses(4, 23))
                writer.append(a);
        }
        std::filesystem::resize_file(
            bin.path,
            sizeof kTraceMagic + 3 * kTraceRecordBytes + cut);
        EXPECT_ARCC_ERROR(TraceStream(bin.path), "torn final write");
    }
}

TEST(BinaryTraceDeathTest, TornFinalRecordIsFatalAtEveryOffset)
{
    // Same sweep through the streaming converter.
    std::ostringstream bin;
    BinaryTraceWriter writer(bin);
    for (const auto &a : syntheticAccesses(2, 29))
        writer.append(a);
    const std::string whole = bin.str();
    for (std::size_t cut = 1; cut < kTraceRecordBytes; ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        std::istringstream torn(whole.substr(
            0, sizeof kTraceMagic + kTraceRecordBytes + cut));
        std::ostringstream text;
        EXPECT_ARCC_ERROR(binaryTraceToText(torn, text), "torn final write");
    }
}

TEST(TraceStreamDeathTest, FileShrinkingMidReplayIsFatal)
{
    TempFile bin(tempPath("shrink.bin"));
    {
        std::ofstream out(bin.path, std::ios::binary);
        BinaryTraceWriter writer(out);
        for (const auto &a : syntheticAccesses(64, 17))
            writer.append(a);
    }
    EXPECT_ARCC_ERROR(
        {
            TraceStream stream(bin.path, 8);
            std::filesystem::resize_file(
                bin.path, sizeof kTraceMagic + kTraceRecordBytes);
            for (int i = 0; i < 64; ++i)
                stream.next();
        },
        "shrank");
}

// --- StreamSpec factories ----------------------------------------------

TEST(TraceStreamSpec, BinaryAndTextTracesProduceTheSameStream)
{
    auto original = syntheticAccesses(128, 19);
    TempFile text(tempPath("spec.txt"));
    TempFile bin(tempPath("spec.bin"));
    {
        std::ofstream out(text.path);
        TraceWriter writer(out);
        for (const auto &a : original)
            writer.append(a);
    }
    textTraceFileToBinary(text.path, bin.path);

    StreamSpec from_text = traceStreamSpec(text.path, 1.5);
    StreamSpec from_bin = traceStreamSpec(bin.path, 1.5);
    ASSERT_TRUE(from_text.next && from_bin.next);
    ASSERT_TRUE(from_text.laps && from_bin.laps);
    for (int i = 0; i < 300; ++i) {
        CoreWorkload::Access a = from_text.next();
        CoreWorkload::Access b = from_bin.next();
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.isWrite, b.isWrite) << i;
        EXPECT_EQ(a.instrGap, b.instrGap) << i;
    }
    EXPECT_EQ(from_text.laps(), from_bin.laps());
    EXPECT_EQ(from_text.laps(), 2u);
    // The spec names are the file basenames.
    EXPECT_EQ(from_text.name.find("arcc_test_trace.spec.txt"), 0u);
}

TEST(TraceStreamSpecDeathTest, EmptyTextTraceIsFatal)
{
    TempFile text(tempPath("comments_only.txt"));
    {
        std::ofstream out(text.path);
        out << "# a trace with no accesses\n\n";
    }
    EXPECT_ARCC_ERROR(traceStreamSpec(text.path, 1.0), "no accesses");
}

// --- end-to-end through the simulator ----------------------------------

TEST(TraceReplay, DrivesTheSystemSimulator)
{
    // Capture four synthetic streams, replay them, and check the
    // simulator produces the same result as the live generators.
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 50'000;
    cfg.seed = 77;

    SimResult live = simulateMix(table73Mixes()[3], cfg, {});

    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::vector<StreamSpec> streams;
    for (int i = 0; i < 4; ++i) {
        const BenchmarkProfile &prof =
            benchmarkProfile(table73Mixes()[3].benchmarks[i]);
        CoreWorkload wl(prof, map.capacity(), i,
                        mixCoreSeed(cfg.seed, i));
        std::vector<CoreWorkload::Access> recorded;
        std::uint64_t instrs = 0;
        while (instrs < cfg.instrsPerCore + 1000) {
            recorded.push_back(wl.next());
            instrs += recorded.back().instrGap;
        }
        auto replay = std::make_shared<TraceReplay>(recorded);
        StreamSpec spec;
        spec.name = prof.name + "-trace";
        spec.baseIpc = prof.baseIpc;
        spec.next = [replay]() { return replay->next(); };
        spec.laps = [replay]() { return replay->laps(); };
        streams.push_back(std::move(spec));
    }
    SimResult replayed = simulateStreams(std::move(streams), cfg, {});
    EXPECT_NEAR(replayed.ipcSum, live.ipcSum, 1e-9);
    EXPECT_NEAR(replayed.avgPowerMw, live.avgPowerMw, 1e-9);
    // The traces were captured past the budget, so no core wrapped;
    // the lap accounting still surfaces per core.
    for (const CoreResult &core : replayed.cores)
        EXPECT_EQ(core.traceLaps, 0u);
    for (const CoreResult &core : live.cores)
        EXPECT_EQ(core.traceLaps, 0u); // synthetic: no lap counter.
}

TEST(TraceStream, ShortTraceLapsSurfaceInTheSimResult)
{
    // A trace much shorter than the instruction budget wraps many
    // times; CoreResult::traceLaps reports it (the signal that the
    // run is repetition-dominated).
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 50'000;
    cfg.seed = 23;
    AddressMap map(cfg.mem, cfg.mapPolicy);

    TempFile bin(tempPath("short.bin"));
    std::uint64_t trace_instrs = 0;
    {
        CoreWorkload wl(benchmarkProfile("libquantum"),
                        map.capacity(), 0, cfg.seed);
        std::ofstream out(bin.path, std::ios::binary);
        BinaryTraceWriter writer(out);
        for (int i = 0; i < 200; ++i) {
            CoreWorkload::Access a = wl.next();
            trace_instrs += a.instrGap;
            writer.append(a);
        }
    }

    std::vector<StreamSpec> streams;
    streams.push_back(traceStreamSpec(
        bin.path, benchmarkProfile("libquantum").baseIpc));
    for (int i = 1; i < cfg.cores; ++i)
        streams.push_back(syntheticStreamSpec(
            "sjeng", map.capacity(), i, cfg.seed + i));
    SimResult r = simulateStreams(std::move(streams), cfg, {});

    EXPECT_GE(r.cores[0].traceLaps,
              cfg.instrsPerCore / trace_instrs);
    EXPECT_EQ(r.cores[1].traceLaps, 0u);
    EXPECT_GE(r.cores[0].instrs, cfg.instrsPerCore);
}

} // namespace
} // namespace arcc
