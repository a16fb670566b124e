/**
 * @file
 * Checkpoint log implementation: sealed-record append and the
 * torn-tail recovery scan.
 */

#include "campaign/checkpoint.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <unistd.h>

#include "common/crc32c.hh"
#include "common/logging.hh"

namespace arcc
{

namespace
{

/** Ceiling on one record payload: larger is a corrupt length word or
 *  a format bug, never a real campaign aggregate. */
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

std::uint32_t
readU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

void
writeU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
writeU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::vector<std::uint8_t>
encodeHeader(const CheckpointIdentity &identity)
{
    std::vector<std::uint8_t> payload(kHeaderPayloadBytes);
    std::memcpy(payload.data(), kCheckpointMagic,
                sizeof kCheckpointMagic);
    writeU32(payload.data() + 8, kCheckpointVersion);
    writeU64(payload.data() + 12, identity.configHash);
    writeU64(payload.data() + 20, identity.seed);
    writeU32(payload.data() + 28, identity.workerId);
    writeU32(payload.data() + 32, identity.workerCount);
    writeU64(payload.data() + 36, identity.beginTrial);
    writeU64(payload.data() + 44, identity.endTrial);
    return payload;
}

/**
 * Parse and validate a sealed header payload against the expected
 * identity.  fatal() with a diagnostic naming `path` on any mismatch;
 * on success fills `out.identity` and `out.version`.
 */
void
checkHeader(const std::string &path,
            std::span<const std::uint8_t> payload,
            const CheckpointIdentity &expected, CheckpointRecovery &out)
{
    if (payload.size() < 12 ||
        std::memcmp(payload.data(), kCheckpointMagic,
                    sizeof kCheckpointMagic) != 0)
        fatal("checkpoint '%s': missing ARCCCKP1 magic -- not an "
              "ARCC campaign checkpoint; refusing to touch it",
              path.c_str());
    const std::uint32_t version = readU32(payload.data() + 8);
    if (version > kCheckpointVersion)
        fatal("checkpoint '%s': log version newer than binary "
              "(format version %u, this binary reads up to %u) -- "
              "rerun with a build that understands it; refusing to "
              "resume", path.c_str(), version, kCheckpointVersion);
    if (version < kCheckpointVersionMin)
        fatal("checkpoint '%s': format version %u predates the "
              "oldest supported version %u; refusing to resume",
              path.c_str(), version, kCheckpointVersionMin);
    const std::size_t want_len = version == 1 ? kHeaderPayloadBytesV1
                                              : kHeaderPayloadBytes;
    if (payload.size() != want_len)
        fatal("checkpoint '%s': v%u header is %zu bytes, expected "
              "%zu; refusing to resume", path.c_str(), version,
              payload.size(), want_len);

    out.version = version;
    out.identity.configHash = readU64(payload.data() + 12);
    out.identity.seed = readU64(payload.data() + 20);
    if (out.identity.configHash != expected.configHash ||
        out.identity.seed != expected.seed)
        fatal("checkpoint '%s': belongs to a different campaign "
              "(config hash %016llx seed %llu, expected %016llx "
              "seed %llu); refusing to resume or overwrite",
              path.c_str(),
              static_cast<unsigned long long>(out.identity.configHash),
              static_cast<unsigned long long>(out.identity.seed),
              static_cast<unsigned long long>(expected.configHash),
              static_cast<unsigned long long>(expected.seed));

    if (version == 1) {
        // A v1 log predates the worker stamp: it can only have been
        // written by a whole-range single-worker run, so it is
        // readable exactly as that and nothing else.
        if (expected.workerId != 0 || expected.workerCount != 1 ||
            expected.beginTrial != 0)
            fatal("checkpoint '%s': v1 log carries no worker stamp "
                  "and is readable only as the whole-range single "
                  "worker, but this run expects worker %u of %u "
                  "covering trials [%llu, %llu); refusing to resume",
                  path.c_str(), expected.workerId,
                  expected.workerCount,
                  static_cast<unsigned long long>(expected.beginTrial),
                  static_cast<unsigned long long>(expected.endTrial));
        out.identity.workerId = expected.workerId;
        out.identity.workerCount = expected.workerCount;
        out.identity.beginTrial = expected.beginTrial;
        out.identity.endTrial = expected.endTrial;
        return;
    }

    out.identity.workerId = readU32(payload.data() + 28);
    out.identity.workerCount = readU32(payload.data() + 32);
    out.identity.beginTrial = readU64(payload.data() + 36);
    out.identity.endTrial = readU64(payload.data() + 44);
    if (out.identity.workerId != expected.workerId ||
        out.identity.workerCount != expected.workerCount ||
        out.identity.beginTrial != expected.beginTrial ||
        out.identity.endTrial != expected.endTrial)
        fatal("checkpoint '%s': worker stamp mismatch -- the log "
              "belongs to worker %u of %u covering trials "
              "[%llu, %llu), this run expects worker %u of %u "
              "covering [%llu, %llu) (swapped worker logs?); "
              "refusing to resume", path.c_str(),
              out.identity.workerId, out.identity.workerCount,
              static_cast<unsigned long long>(out.identity.beginTrial),
              static_cast<unsigned long long>(out.identity.endTrial),
              expected.workerId, expected.workerCount,
              static_cast<unsigned long long>(expected.beginTrial),
              static_cast<unsigned long long>(expected.endTrial));
}

/** Frame a payload: [len][crc][payload] in one contiguous buffer. */
std::vector<std::uint8_t>
frame(std::span<const std::uint8_t> payload)
{
    ARCC_ASSERT(payload.size() <= kMaxPayloadBytes);
    std::vector<std::uint8_t> out(kFrameOverheadBytes + payload.size());
    writeU32(out.data(), static_cast<std::uint32_t>(payload.size()));
    writeU32(out.data() + 4, crc32c(payload));
    std::memcpy(out.data() + kFrameOverheadBytes, payload.data(),
                payload.size());
    return out;
}

/** fwrite + fflush + fsync one sealed frame; fatal on any failure. */
void
sealFrame(const std::string &path, std::FILE *file,
          std::span<const std::uint8_t> bytes)
{
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) !=
        bytes.size())
        fatal("checkpoint '%s': write failed (%s)", path.c_str(),
              std::strerror(errno));
    if (std::fflush(file) != 0)
        fatal("checkpoint '%s': flush failed (%s)", path.c_str(),
              std::strerror(errno));
    if (::fsync(::fileno(file)) != 0)
        fatal("checkpoint '%s': fsync failed (%s)", path.c_str(),
              std::strerror(errno));
}

} // anonymous namespace

CheckpointRecovery
recoverCheckpoint(const std::string &path,
                  const CheckpointIdentity &expected,
                  const std::function<void(
                      std::span<const std::uint8_t>)> &onRecord)
{
    CheckpointRecovery out;

    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        out.identity = expected;
        out.fresh = true;
        return out;
    }

    std::vector<std::uint8_t> bytes;
    {
        const UniqueFile owner(std::fopen(path.c_str(), "rb"));
        std::FILE *file = owner.get();
        if (!file)
            fatal("checkpoint '%s': cannot open (%s)", path.c_str(),
                  std::strerror(errno));
        std::uint8_t chunk[1 << 16];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0)
            bytes.insert(bytes.end(), chunk, chunk + got);
        if (std::ferror(file))
            fatal("checkpoint '%s': read failed (%s)", path.c_str(),
                  std::strerror(errno));
    }

    if (bytes.empty()) {
        out.identity = expected;
        out.fresh = true;
        return out;
    }

    // Walk the frames.  `offset` always points at a frame boundary.
    std::uint64_t offset = 0;
    bool saw_header = false;
    for (;;) {
        const std::uint64_t remaining = bytes.size() - offset;
        if (remaining == 0)
            break;

        // Does a whole sealed frame fit here?
        bool sealed = false;
        std::uint32_t len = 0;
        if (remaining >= kFrameOverheadBytes) {
            len = readU32(bytes.data() + offset);
            if (len <= kMaxPayloadBytes &&
                kFrameOverheadBytes + len <= remaining) {
                const std::uint32_t want =
                    readU32(bytes.data() + offset + 4);
                const std::uint32_t got = crc32c(
                    {bytes.data() + offset + kFrameOverheadBytes,
                     len});
                sealed = want == got;
            }
        }

        if (!sealed) {
            // Invalid frame.  Only a *tail* can be torn: a bad CRC
            // whose frame nevertheless ends before EOF has sealed
            // data after it, which one interrupted append cannot
            // produce.
            const bool reaches_eof =
                remaining < kFrameOverheadBytes ||
                len > kMaxPayloadBytes ||
                kFrameOverheadBytes + len >= remaining;
            if (!reaches_eof)
                fatal("checkpoint '%s': corrupt record at offset "
                      "%llu with %llu sealed bytes after it -- this "
                      "is not a torn append; refusing to resume from "
                      "a corrupt checkpoint",
                      path.c_str(),
                      static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(
                          bytes.size() - offset));
            if (!saw_header) {
                // A file shorter than one sealed header frame can
                // only be a crash during create(): nothing sealed was
                // ever on disk, so nothing is lost by starting over.
                // (Shorter than the *v2* frame: a sealed v1 header is
                // caught by the CRC above before reaching here.)
                if (bytes.size() <
                    kFrameOverheadBytes + kHeaderPayloadBytes) {
                    warn("checkpoint '%s': %zu-byte torn header "
                         "stub; starting the campaign from scratch",
                         path.c_str(), bytes.size());
                    out.identity = expected;
                    out.fresh = true;
                    return out;
                }
                fatal("checkpoint '%s': corrupt header frame -- not "
                      "an ARCC campaign checkpoint, or damaged "
                      "beyond recovery; refusing to touch it",
                      path.c_str());
            }
            out.tornBytes = remaining;
            warn("checkpoint '%s': dropping %llu torn trailing "
                 "bytes; resuming from the last sealed epoch",
                 path.c_str(),
                 static_cast<unsigned long long>(remaining));
            break;
        }

        std::span<const std::uint8_t> payload{
            bytes.data() + offset + kFrameOverheadBytes, len};
        if (!saw_header) {
            checkHeader(path, payload, expected, out);
            saw_header = true;
        } else {
            if (onRecord)
                onRecord(payload);
            out.lastPayload.assign(payload.begin(), payload.end());
            ++out.records;
        }
        offset += kFrameOverheadBytes + len;
        out.validBytes = offset;
    }
    return out;
}

CheckpointWriter::CheckpointWriter(std::string path, std::FILE *file)
    : path_(std::move(path)), file_(file)
{
}

CheckpointWriter
CheckpointWriter::create(const std::string &path,
                         const CheckpointIdentity &identity)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("checkpoint '%s': cannot create (%s)", path.c_str(),
              std::strerror(errno));
    CheckpointWriter writer(path, file);
    sealFrame(path, file, frame(encodeHeader(identity)));
    return writer;
}

CheckpointWriter
CheckpointWriter::resume(const std::string &path,
                         const CheckpointRecovery &recovery)
{
    if (recovery.fresh)
        return create(path, recovery.identity);
    if (recovery.tornBytes > 0) {
        std::error_code ec;
        std::filesystem::resize_file(path, recovery.validBytes, ec);
        if (ec)
            fatal("checkpoint '%s': cannot truncate the torn tail "
                  "(%s)", path.c_str(), ec.message().c_str());
    }
    std::FILE *file = std::fopen(path.c_str(), "ab");
    if (!file)
        fatal("checkpoint '%s': cannot reopen for append (%s)",
              path.c_str(), std::strerror(errno));
    return CheckpointWriter(path, file);
}

void
CheckpointWriter::append(std::span<const std::uint8_t> payload)
{
    ARCC_ASSERT(file_ != nullptr);
    if (payload.size() > kMaxPayloadBytes)
        fatal("checkpoint '%s': %zu-byte record exceeds the %u-byte "
              "format ceiling", path_.c_str(), payload.size(),
              kMaxPayloadBytes);
    sealFrame(path_, file_.get(), frame(payload));
}

} // namespace arcc
