/**
 * @file
 * Crash-safe append-only checkpoint log for the campaign driver.
 *
 * On-disk layout (everything little-endian):
 *
 *     file   := header-frame epoch-frame*
 *     frame  := u32 payload-length | u32 crc32c(payload) | payload
 *
 *     header payload := "ARCCCKP1" magic (8 bytes)
 *                     | u32 format version
 *                     | u64 campaign config hash
 *                     | u64 campaign seed
 *                     | u32 worker id          (v2)
 *                     | u32 worker count       (v2)
 *                     | u64 first owned trial  (v2)
 *                     | u64 one-past-last trial (v2)
 *
 * Version history: v1 logs end after the seed -- they predate the
 * multi-process scale-out and are readable only as the whole-range
 * single worker (worker 0 of 1).  v2 adds the worker-id/range stamp
 * so one campaign's N per-worker logs can never be confused with each
 * other or with another fleet's slices.  A reader confronted with a
 * version *newer* than it writes says so explicitly ("log version
 * newer than binary") instead of hiding behind a generic mismatch.
 *
 *     epoch payload  := opaque bytes owned by the campaign layer
 *                       (epoch index, next-trial cursor, serialized
 *                       aggregate -- see campaign.hh)
 *
 * Write discipline: every frame is appended with one fwrite, then
 * fflush + fsync before append() returns ("sealed-record append").  A
 * crash -- including SIGKILL -- can therefore leave at most one torn
 * frame, and only at the tail of the file.
 *
 * Recovery policy (recoverCheckpoint), the part the fault-injection
 * suite in tests/test_checkpoint.cc pins:
 *
 *  - a frame that fails its CRC or runs past EOF *at the tail* is a
 *    torn write: it is reported, never trusted, and truncated away on
 *    resume, landing the campaign on the last sealed epoch;
 *  - an invalid frame with more data *after* it cannot be a torn
 *    append -- it is corruption, and recovery refuses (fatal) rather
 *    than resume from any state derived from it;
 *  - a header that is valid framing but wrong magic / version /
 *    config hash / seed is somebody else's file or another campaign's
 *    checkpoint: fatal, never overwritten;
 *  - a file shorter than a complete header frame can only be a crash
 *    during creation (the header is the first sealed append): it is
 *    treated as "no checkpoint yet".
 *
 * The epoch payloads themselves are opaque here; the campaign layer
 * validates their monotonicity (strictly advancing epoch index and
 * cursor) and fatals on duplicated or reordered records, so a CRC
 * collision can never smuggle a stale epoch back in.
 */

#ifndef ARCC_CAMPAIGN_CHECKPOINT_HH
#define ARCC_CAMPAIGN_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/unique_file.hh"

namespace arcc
{

/** Magic bytes opening a checkpoint header payload. */
inline constexpr char kCheckpointMagic[8] = {'A', 'R', 'C', 'C',
                                             'C', 'K', 'P', '1'};
/** Checkpoint format version this binary writes (bumped on any
 *  layout change; v2 added the worker-id/range stamp). */
inline constexpr std::uint32_t kCheckpointVersion = 2;
/** Oldest format version this binary still reads. */
inline constexpr std::uint32_t kCheckpointVersionMin = 1;
/** Bytes of frame overhead (length + CRC words). */
inline constexpr std::size_t kFrameOverheadBytes = 8;
/** Serialized header payload size (v2, with the worker stamp). */
inline constexpr std::size_t kHeaderPayloadBytes =
    8 + 4 + 8 + 8 + 4 + 4 + 8 + 8;
/** Serialized header payload size of a v1 (pre-stamp) log. */
inline constexpr std::size_t kHeaderPayloadBytesV1 = 8 + 4 + 8 + 8;

/** Identity a checkpoint file is bound to. */
struct CheckpointIdentity
{
    /** CampaignSpec::configHash() of the owning campaign. */
    std::uint64_t configHash = 0;
    /** Campaign seed (redundant with the hash; kept readable in the
     *  file so a hexdump identifies the experiment). */
    std::uint64_t seed = 0;
    /** Worker stamp: which contiguous slice [beginTrial, endTrial) of
     *  the campaign's trial space this log owns.  The defaults are
     *  the whole-range single worker, which is also what a v1 log
     *  (written before the stamp existed) is read as. */
    std::uint32_t workerId = 0;
    std::uint32_t workerCount = 1;
    std::uint64_t beginTrial = 0;
    std::uint64_t endTrial = 0;
};

/** What a scan of an existing checkpoint file found. */
struct CheckpointRecovery
{
    CheckpointIdentity identity;
    /** Format version the file was written in (v1 logs carry no
     *  worker stamp; their identity adopts the expected stamp after
     *  the single-worker check). */
    std::uint32_t version = kCheckpointVersion;
    /** Sealed epoch records found (0 = header only). */
    std::uint64_t records = 0;
    /** Payload of the last sealed record (empty when records == 0). */
    std::vector<std::uint8_t> lastPayload;
    /** File offset one past the last sealed frame. */
    std::uint64_t validBytes = 0;
    /** Torn trailing bytes that will be truncated on resume. */
    std::uint64_t tornBytes = 0;
    /** True when the file was absent or a torn header stub. */
    bool fresh = false;
};

/**
 * Scan `path` and locate the last sealed record under the recovery
 * policy above.  `onRecord`, when given, receives every sealed epoch
 * payload in file order (the campaign layer's monotonicity check).
 * fatal() on corruption that truncation cannot explain, on an
 * identity mismatch, or on an unreadable file; a missing file or a
 * sub-header stub returns `.fresh = true`.
 */
CheckpointRecovery
recoverCheckpoint(const std::string &path,
                  const CheckpointIdentity &expected,
                  const std::function<void(
                      std::span<const std::uint8_t>)> &onRecord = {});

/**
 * Appender for a checkpoint log.  Obtain via create() (fresh file,
 * header sealed before the constructor returns) or resume() (after
 * recoverCheckpoint; truncates torn bytes).  Every append is sealed
 * -- framed, flushed and fsynced -- before it returns.
 */
class CheckpointWriter
{
  public:
    /** Create or overwrite `path` with a fresh sealed header. */
    static CheckpointWriter create(const std::string &path,
                                   const CheckpointIdentity &identity);

    /**
     * Reopen `path` for appending after recovery, truncating the
     * torn tail (if any) first.
     */
    static CheckpointWriter resume(const std::string &path,
                                   const CheckpointRecovery &recovery);

    /** Seal one epoch record (frame + flush + fsync). */
    void append(std::span<const std::uint8_t> payload);

  private:
    CheckpointWriter(std::string path, std::FILE *file);

    std::string path_;
    UniqueFile file_;
};

} // namespace arcc

#endif // ARCC_CAMPAIGN_CHECKPOINT_HH
