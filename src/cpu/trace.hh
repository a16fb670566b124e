/**
 * @file
 * Memory-access trace capture and replay.
 *
 * The synthetic generators in workloads.hh are statistical stand-ins
 * for SPEC (DESIGN.md section 4).  Users who *do* have real traces --
 * from a PIN tool, gem5, or a production sampler -- can feed them to
 * the same simulator through the StreamSpec factories below and
 * compare against the synthetic twins, or capture the twins' streams
 * for inspection with TraceWriter / BinaryTraceWriter.
 *
 * Two interchangeable on-disk formats:
 *
 *  - **Text** (human-editable): one access per line,
 *
 *        <hex-address> <R|W> <instructions-since-previous-access>
 *
 *    '#'-prefixed lines (leading whitespace allowed) are comments;
 *    blank lines, trailing whitespace, and CRLF endings are
 *    tolerated.  parseTrace / loadTrace slurp it into memory for
 *    TraceReplay.
 *
 *  - **Binary** (production scale): an 8-byte magic ("ARCCTRC1")
 *    followed by fixed 16-byte little-endian records -- bytes 0-7 the
 *    address, bytes 8-15 the instruction gap with the top bit set for
 *    writes.  TraceStream replays it through a bounded chunk buffer,
 *    so resident memory is O(chunk) no matter how long the trace is.
 *
 * textTraceToBinary / binaryTraceToText convert between the two, one
 * access at a time (also O(chunk)).  traceStreamSpec() wraps either
 * format as a simulateStreams core, auto-detected by the magic.
 */

#ifndef ARCC_CPU_TRACE_HH
#define ARCC_CPU_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/unique_file.hh"
#include "cpu/system_sim.hh"
#include "cpu/workloads.hh"

namespace arcc
{

/** Write accesses to a text trace stream. */
class TraceWriter
{
  public:
    /** @param out destination stream (not owned). */
    explicit TraceWriter(std::ostream &out);

    /** Append one access. */
    void append(const CoreWorkload::Access &access);

    /** Accesses written so far. */
    std::uint64_t count() const { return count_; }

  private:
    std::ostream &out_;
    std::uint64_t count_ = 0;
};

// --- binary format -----------------------------------------------------

/** Magic bytes opening a binary trace ("ARCCTRC1"). */
inline constexpr char kTraceMagic[8] = {'A', 'R', 'C', 'C',
                                        'T', 'R', 'C', '1'};
/** Bytes per binary trace record. */
inline constexpr std::size_t kTraceRecordBytes = 16;

/**
 * Write accesses to a binary trace stream.  The format carries no
 * record count -- the payload length defines it -- so the writer
 * needs no finalisation step and works on non-seekable streams.
 */
class BinaryTraceWriter
{
  public:
    /** @param out destination stream (not owned); magic is written
     *  immediately. */
    explicit BinaryTraceWriter(std::ostream &out);

    /** Append one access; fatal() if the instruction gap does not fit
     *  the record's 63-bit field (never a realistic trace). */
    void append(const CoreWorkload::Access &access);

    /** Accesses written so far. */
    std::uint64_t count() const { return count_; }

  private:
    std::ostream &out_;
    std::uint64_t count_ = 0;
};

/**
 * Parse a text trace stream into memory.
 * @throws nothing; calls fatal() on malformed input (user error).
 */
std::vector<CoreWorkload::Access> parseTrace(std::istream &in);

/** Load a text trace file; fatal() if it cannot be opened or parsed. */
std::vector<CoreWorkload::Access> loadTrace(const std::string &path);

/**
 * Convert a text trace to the binary format, one access at a time
 * (O(1) resident memory).
 * @return records converted.
 */
std::uint64_t textTraceToBinary(std::istream &text, std::ostream &bin);

/**
 * Convert a binary trace back to canonical text (the exact bytes
 * TraceWriter would emit for the same accesses), one access at a
 * time.  fatal() on a bad magic or a truncated record.
 * @return records converted.
 */
std::uint64_t binaryTraceToText(std::istream &bin, std::ostream &text);

/** File-path convenience wrapper over textTraceToBinary. */
std::uint64_t textTraceFileToBinary(const std::string &text_path,
                                    const std::string &bin_path);

/** File-path convenience wrapper over binaryTraceToText. */
std::uint64_t binaryTraceFileToText(const std::string &bin_path,
                                    const std::string &text_path);

/** @return true when the file starts with the binary trace magic. */
bool isBinaryTraceFile(const std::string &path);

/**
 * Replays a recorded trace as an access stream, looping when the
 * simulator needs more accesses than the trace holds.  The whole
 * trace is resident; use TraceStream for production-scale files.
 */
class TraceReplay
{
  public:
    explicit TraceReplay(std::vector<CoreWorkload::Access> accesses);

    /** Next access (wraps around at the end of the trace). */
    CoreWorkload::Access next();

    std::size_t size() const { return accesses_.size(); }
    /** Number of times the trace has wrapped. */
    std::uint64_t laps() const { return laps_; }

  private:
    std::vector<CoreWorkload::Access> accesses_;
    std::size_t pos_ = 0;
    std::uint64_t laps_ = 0;
};

/**
 * Streaming replay of a *binary* trace file: records are decoded out
 * of a fixed chunk buffer that is refilled from disk as the replay
 * advances, so resident memory is O(chunkRecords) regardless of the
 * file length (tests/test_alloc_free.cc enforces the bound).  Like
 * TraceReplay it wraps around at the end of the trace and counts
 * laps.
 *
 * fatal() on open failure, a bad magic, a truncated trailing record,
 * an empty trace, or a file that shrinks mid-replay (user error in
 * all cases).
 */
class TraceStream
{
  public:
    /** Default chunk: 4096 records = 64 KiB resident. */
    static constexpr std::size_t kDefaultChunkRecords = 4096;

    explicit TraceStream(std::string path,
                         std::size_t chunkRecords = kDefaultChunkRecords);

    /** Next access (wraps around at the end of the trace). */
    CoreWorkload::Access next();

    /** Records in the file (one lap). */
    std::uint64_t records() const { return records_; }
    /** Number of times the trace has wrapped. */
    std::uint64_t laps() const { return laps_; }
    /** Records the chunk buffer holds. */
    std::size_t chunkRecords() const { return chunk_records_; }

  private:
    void refill();

    std::string path_;
    UniqueFile file_;
    std::size_t chunk_records_;
    std::vector<std::uint8_t> buf_;
    std::size_t buf_records_ = 0; ///< valid records in buf_.
    std::size_t pos_ = 0;         ///< next record index in buf_.
    std::uint64_t records_ = 0;
    std::uint64_t cursor_ = 0; ///< next file record index to read.
    std::uint64_t in_pass_ = 0; ///< records returned this lap.
    std::uint64_t laps_ = 0;
};

// --- simulateStreams plumbing ------------------------------------------

/**
 * Wrap a trace file as one simulateStreams core.  Binary traces
 * (detected by the magic) replay through a TraceStream at O(chunk)
 * memory; text traces are loaded whole into a TraceReplay.  The
 * spec's name is the file's basename and its lap counter feeds
 * CoreResult::traceLaps.  fatal() on an unreadable or empty trace.
 *
 * @param path         trace file, text or binary.
 * @param baseIpc      the traced core's compute throughput between
 *                     accesses (text traces do not carry it).
 * @param chunkRecords TraceStream chunk size for binary traces.
 */
StreamSpec
traceStreamSpec(const std::string &path, double baseIpc,
                std::size_t chunkRecords =
                    TraceStream::kDefaultChunkRecords);

/**
 * Capture one synthetic benchmark stream into a trace file covering
 * `instrBudget` instructions.  The capture loop draws *exactly* the
 * access sequence simulateStreams' record phase consumes for the same
 * (benchmark, memBytes, coreId, seed, budget), so replaying the file
 * reproduces the live generator's SimResult bit for bit -- the
 * capture/replay closure (tests/test_property_trace.cc) -- and the
 * replay wraps exactly once per budget covered
 * (CoreResult::traceLaps).
 *
 * @param binary  true writes the ARCCTRC1 binary format, false the
 *                text format.
 * @return records written.
 */
std::uint64_t captureSyntheticTrace(const std::string &benchmark,
                                    std::uint64_t memBytes, int coreId,
                                    std::uint64_t seed,
                                    std::uint64_t instrBudget,
                                    const std::string &path,
                                    bool binary = true);

} // namespace arcc

#endif // ARCC_CPU_TRACE_HH
