/**
 * @file
 * Functional ARCC memory implementation.
 */

#include "arcc/arcc_memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace arcc
{

const char *
toString(SchemeKind k)
{
    switch (k) {
      case SchemeKind::CommercialSccdcd:  return "commercial SCCDCD";
      case SchemeKind::DoubleChipSparing: return "double chip sparing";
      case SchemeKind::ArccCommercial:    return "ARCC (commercial)";
      case SchemeKind::ArccDcs:           return "ARCC (chip sparing)";
      case SchemeKind::LotEcc9:           return "LOT-ECC 9-device";
      case SchemeKind::ArccLotEcc:        return "ARCC (LOT-ECC)";
    }
    return "?";
}

int
FunctionalConfig::linesPerRow() const
{
    return pagesPerRow * static_cast<int>(kLinesPerPage) / channels;
}

std::uint64_t
FunctionalConfig::capacity() const
{
    return static_cast<std::uint64_t>(channels) * ranksPerChannel *
           banks * rows * linesPerRow() * kLineBytes;
}

FunctionalConfig
FunctionalConfig::arccSmall()
{
    FunctionalConfig c;
    c.scheme = SchemeKind::ArccCommercial;
    c.channels = 2;
    c.ranksPerChannel = 2;
    c.devicesPerRank = 18;
    c.banks = 2;
    c.rows = 16;
    return c; // 2*2*2*16*64 lines = 512 KB, 128 pages.
}

FunctionalConfig
FunctionalConfig::baselineSmall()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::CommercialSccdcd;
    c.ranksPerChannel = 1;
    c.devicesPerRank = 36;
    c.rows = 32;
    return c;
}

FunctionalConfig
FunctionalConfig::arccWide()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::ArccDcs;
    c.channels = 4;
    c.allowLevel2 = true;
    c.rows = 8;
    return c;
}

FunctionalConfig
FunctionalConfig::lotSmall()
{
    FunctionalConfig c = arccSmall();
    c.scheme = SchemeKind::ArccLotEcc;
    c.devicesPerRank = 9;
    return c;
}

namespace
{

/** Fixed schemes run their single code as "Relaxed"; adaptive schemes
 *  boot every page Upgraded per Section 4.2.1. */
PageMode
bootMode(SchemeKind scheme)
{
    switch (scheme) {
      case SchemeKind::CommercialSccdcd:
      case SchemeKind::DoubleChipSparing:
      case SchemeKind::LotEcc9:
        return PageMode::Relaxed;
      default:
        return PageMode::Upgraded;
    }
}

} // anonymous namespace

ArccMemory::ArccMemory(const FunctionalConfig &config)
    : config_(config),
      pageTable_(config.pages(), bootMode(config.scheme))
{
    switch (config_.scheme) {
      case SchemeKind::CommercialSccdcd:
        relaxedCodec_ = schemes::commercialSccdcd();
        break;
      case SchemeKind::DoubleChipSparing:
        relaxedCodec_ = schemes::doubleChipSparing();
        break;
      case SchemeKind::ArccCommercial:
        relaxedCodec_ = schemes::arccRelaxed();
        upgradedCodec_ = schemes::arccUpgraded();
        if (config_.allowLevel2)
            upgraded2Codec_ = schemes::arccUpgraded2();
        break;
      case SchemeKind::ArccDcs:
        relaxedCodec_ = schemes::arccRelaxed();
        upgradedCodec_ = std::make_unique<RsLineCodec>(
            36, 32, 128, 2, "ARCC+DCS upgraded RS(36,32)");
        if (config_.allowLevel2)
            upgraded2Codec_ = std::make_unique<RsLineCodec>(
                72, 64, 256, 2, "ARCC+DCS upgraded-2 RS(72,64)");
        break;
      case SchemeKind::LotEcc9:
        relaxedCodec_ = schemes::lotEcc9();
        break;
      case SchemeKind::ArccLotEcc:
        relaxedCodec_ = schemes::lotEcc9();
        upgradedCodec_ = schemes::lotEcc18();
        break;
    }

    if (relaxedCodec_->devices() != config_.devicesPerRank)
        fatal("ArccMemory: scheme %s needs %d devices/rank, config has %d",
              toString(config_.scheme), relaxedCodec_->devices(),
              config_.devicesPerRank);
    if (upgradedCodec_ &&
        upgradedCodec_->devices() > 2 * config_.devicesPerRank)
        fatal("ArccMemory: upgraded codec spans %d devices, only %d "
              "available",
              upgradedCodec_->devices(), 2 * config_.devicesPerRank);
    if (upgraded2Codec_ && config_.channels < 4)
        fatal("ArccMemory: level-2 upgrade needs 4 channels, have %d",
              config_.channels);

    slotBytes_ = relaxedCodec_->sliceBytes();
    if (upgradedCodec_)
        slotBytes_ = std::max(slotBytes_, upgradedCodec_->sliceBytes());
    if (upgraded2Codec_)
        slotBytes_ = std::max(slotBytes_, upgraded2Codec_->sliceBytes());

    std::size_t slots = static_cast<std::size_t>(config_.banks) *
                        config_.rows * config_.linesPerRow();
    storage_.assign(static_cast<std::size_t>(config_.channels) *
                        config_.ranksPerChannel * config_.devicesPerRank,
                    std::vector<std::uint8_t>(slots * slotBytes_, 0));
    spared_.assign(static_cast<std::size_t>(config_.channels) *
                       config_.ranksPerChannel,
                   {});

    // Initialise the arrays to *properly encoded* zero content so a
    // fresh memory decodes clean under every scheme (the LOT-ECC
    // checksum convention makes raw zeros inconsistent on purpose).
    PageMode mode = bootMode(config_.scheme);
    const LineCodec &codec = codecFor(mode);
    std::vector<std::uint8_t> zeros(codec.dataBytes(), 0);
    DeviceSlices slices = codec.encode(zeros);
    for (std::uint64_t base = 0; base < capacity();
         base += codec.dataBytes())
        storeGroup(base, mode, slices);
}

ArccMemory::Loc
ArccMemory::locOf(std::uint64_t addr) const
{
    ARCC_ASSERT(addr < capacity());
    std::uint64_t line = addr / kLineBytes;
    Loc loc;
    loc.channel = static_cast<int>(line % config_.channels);
    line /= config_.channels;
    loc.col = static_cast<int>(line % config_.linesPerRow());
    line /= config_.linesPerRow();
    loc.bank = static_cast<int>(line % config_.banks);
    line /= config_.banks;
    loc.rank = static_cast<int>(line % config_.ranksPerChannel);
    line /= config_.ranksPerChannel;
    loc.row = static_cast<std::uint32_t>(line);
    return loc;
}

std::size_t
ArccMemory::slotOffset(const Loc &loc) const
{
    std::size_t slot =
        (static_cast<std::size_t>(loc.bank) * config_.rows + loc.row) *
            config_.linesPerRow() +
        loc.col;
    return slot * slotBytes_;
}

std::uint8_t *
ArccMemory::slicePtr(int channel, int rank, int device, const Loc &loc)
{
    std::size_t dev_idx =
        (static_cast<std::size_t>(channel) * config_.ranksPerChannel +
         rank) * config_.devicesPerRank +
        device;
    return storage_[dev_idx].data() + slotOffset(loc);
}

const LineCodec &
ArccMemory::codecFor(PageMode mode) const
{
    switch (mode) {
      case PageMode::Relaxed:
        return *relaxedCodec_;
      case PageMode::Upgraded:
        ARCC_ASSERT(upgradedCodec_);
        return *upgradedCodec_;
      case PageMode::Upgraded2:
        ARCC_ASSERT(upgraded2Codec_);
        return *upgraded2Codec_;
    }
    return *relaxedCodec_;
}

int
ArccMemory::subLines(PageMode mode) const
{
    return codecFor(mode).dataBytes() / static_cast<int>(kLineBytes);
}

std::uint64_t
ArccMemory::groupBytes(PageMode mode) const
{
    return codecFor(mode).dataBytes();
}

void
ArccMemory::applyOverlay(std::span<std::uint8_t> bytes, int channel,
                         int rank, int device, const Loc &loc) const
{
    for (const FunctionalFault &f : faults_) {
        if (f.channel != channel || f.device != device)
            continue;
        if (f.scope != FaultScope::Lane && f.rank != rank)
            continue;
        bool match = false;
        switch (f.scope) {
          case FaultScope::Device:
          case FaultScope::Lane:
            match = true;
            break;
          case FaultScope::Bank:
            match = loc.bank == f.bank;
            break;
          case FaultScope::Row:
            match = loc.bank == f.bank &&
                    loc.row == static_cast<std::uint32_t>(f.row);
            break;
          case FaultScope::Column:
            match = loc.bank == f.bank && loc.col == f.col;
            break;
          case FaultScope::Cell:
            match = loc.bank == f.bank &&
                    loc.row == static_cast<std::uint32_t>(f.row) &&
                    loc.col == f.col;
            break;
        }
        if (!match)
            continue;
        switch (f.kind) {
          case FaultKind::StuckAt1:
            for (auto &b : bytes)
                b |= f.mask;
            break;
          case FaultKind::StuckAt0:
            for (auto &b : bytes)
                b &= static_cast<std::uint8_t>(~f.mask);
            break;
          case FaultKind::Corrupt: {
            // Deterministic wrong data: the same garbage on every read
            // of the same location, like a broken address decoder.
            std::uint64_t z = (static_cast<std::uint64_t>(channel) << 48) ^
                              (static_cast<std::uint64_t>(rank) << 40) ^
                              (static_cast<std::uint64_t>(device) << 32) ^
                              (static_cast<std::uint64_t>(loc.bank) << 24) ^
                              (static_cast<std::uint64_t>(loc.row) << 12) ^
                              static_cast<std::uint64_t>(loc.col);
            z += 0x9e3779b97f4a7c15ULL;
            for (std::size_t i = 0; i < bytes.size(); ++i) {
                std::uint64_t x = z + i * 0xbf58476d1ce4e5b9ULL;
                x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
                x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
                bytes[i] = static_cast<std::uint8_t>(x >> 56);
            }
            break;
          }
        }
    }
}

void
ArccMemory::gatherGroupInto(std::uint64_t group_base, PageMode mode,
                            DeviceSlices &out)
{
    const LineCodec &codec = codecFor(mode);
    const int dpr = config_.devicesPerRank;
    const int slice = codec.sliceBytes();
    out.resize(codec.devices());

    for (int d = 0; d < codec.devices(); ++d) {
        int sub = d / dpr;
        Loc loc = locOf(group_base + sub * kLineBytes);
        std::uint8_t *p = slicePtr(loc.channel, loc.rank, d % dpr, loc);
        out[d].assign(p, p + slice);
        applyOverlay(out[d], loc.channel, loc.rank, d % dpr, loc);
    }
}

void
ArccMemory::storeGroup(std::uint64_t group_base, PageMode mode,
                       const DeviceSlices &slices)
{
    const LineCodec &codec = codecFor(mode);
    const int dpr = config_.devicesPerRank;
    const int slice = codec.sliceBytes();
    ARCC_ASSERT(slices.size() ==
                static_cast<std::size_t>(codec.devices()));

    for (int d = 0; d < codec.devices(); ++d) {
        int sub = d / dpr;
        Loc loc = locOf(group_base + sub * kLineBytes);
        std::uint8_t *p = slicePtr(loc.channel, loc.rank, d % dpr, loc);
        std::memcpy(p, slices[d].data(), slice);
    }
}

void
ArccMemory::erasedInto(std::uint64_t group_base, PageMode mode,
                       std::vector<int> &out) const
{
    const LineCodec &codec = codecFor(mode);
    const int dpr = config_.devicesPerRank;
    out.clear();
    for (int d = 0; d < codec.devices(); ++d) {
        int sub = d / dpr;
        Loc loc = locOf(group_base + sub * kLineBytes);
        const auto &list = spared_[static_cast<std::size_t>(loc.channel) *
                                       config_.ranksPerChannel +
                                   loc.rank];
        if (std::find(list.begin(), list.end(), d % dpr) != list.end())
            out.push_back(d);
    }
}

void
ArccMemory::readGroupInto(std::uint64_t group_base, PageMode mode,
                          MemoryStats &stats, LineWorkspace &ws,
                          ReadResult &out)
{
    const LineCodec &codec = codecFor(mode);
    gatherGroupInto(group_base, mode, ws.slices);
    erasedInto(group_base, mode, ws.erased);

    out.data.resize(codec.dataBytes());
    codec.decodeInto(ws.slices, out.data, ws.erased, ws, ws.dec);
    out.status = ws.dec.status;
    out.symbolsCorrected = ws.dec.symbolsCorrected;
    stats.deviceReads += codec.devices();
    if (ws.dec.status == DecodeStatus::Corrected)
        stats.corrected += ws.dec.symbolsCorrected;
    if (ws.dec.status == DecodeStatus::Detected)
        ++stats.dues;
}

ReadResult
ArccMemory::readGroup(std::uint64_t group_base, PageMode mode,
                      MemoryStats &stats)
{
    ReadResult res;
    readGroupInto(group_base, mode, stats,
                  LineWorkspace::forThisThread(), res);
    return res;
}

ReadResult
ArccMemory::read(std::uint64_t addr)
{
    ++stats_.reads;
    PageMode mode = pageTable_.mode(pageOf(addr));
    std::uint64_t group = groupBytes(mode);
    std::uint64_t base = addr & ~(group - 1);
    ReadResult whole = readGroup(base, mode, stats_);
    return extractLine(whole, addr, base);
}

std::vector<ReadResult>
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs)
{
    return accessBatch(addrs, stats_);
}

std::vector<ReadResult>
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs,
                        MemoryStats &stats)
{
    // A function-local workspace would also do, but routing through
    // the thread-default one means repeated batches reuse the same
    // buffers.
    static thread_local MemoryWorkspace scratch;
    std::vector<ReadResult> results;
    accessBatch(addrs, stats, scratch, results);
    return results;
}

void
ArccMemory::accessBatch(std::span<const std::uint64_t> addrs,
                        MemoryStats &stats, MemoryWorkspace &ws,
                        std::vector<ReadResult> &results)
{
    results.resize(addrs.size());
    ws.groups.clear();
    ws.addrGroup.resize(addrs.size());

    // Pass 1: walk the stream, discover its distinct groups (the same
    // consecutive-merge rule as the old one-entry decode cache, so
    // the amortisation accounting is unchanged) and gather each one's
    // slices once.  Decoding is deferred: gathering never writes, so
    // nothing a later address reads can depend on an earlier group's
    // decode.
    std::uint64_t cached_page = ~0ULL;
    PageMode mode = PageMode::Relaxed;
    std::uint64_t cached_base = ~0ULL;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const std::uint64_t addr = addrs[i];
        ++stats.reads;
        const std::uint64_t page = pageOf(addr);
        if (page != cached_page) {
            mode = pageTable_.mode(page);
            cached_page = page;
            cached_base = ~0ULL; // group size may have changed.
        }
        const std::uint64_t group = groupBytes(mode);
        const std::uint64_t base = addr & ~(group - 1);
        if (base != cached_base) {
            const std::size_t gi = ws.groups.size();
            if (ws.groupSlices.size() <= gi) {
                ws.groupSlices.emplace_back();
                ws.groupWhole.emplace_back();
            }
            gatherGroupInto(base, mode, ws.groupSlices[gi]);
            erasedInto(base, mode, ws.line.erased);
            const bool slow = codecFor(mode).soaCodec() == nullptr ||
                              !ws.line.erased.empty();
            ws.groups.push_back({base, mode, slow});
            cached_base = base;
        }
        ws.addrGroup[i] =
            static_cast<std::uint32_t>(ws.groups.size() - 1);
    }

    // Pass 2: screen runs of groups through the SoA kernel; only the
    // lanes it flags (plus LOT / erasure groups) pay a full decode.
    screenStagedGroups(stats, ws);

    // Pass 3: per-address line extraction from the decoded groups.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const std::uint32_t gi = ws.addrGroup[i];
        extractLineInto(ws.groupWhole[gi], addrs[i],
                        ws.groups[gi].base, results[i]);
    }
}

void
ArccMemory::decodeStagedGroup(std::size_t g, MemoryStats &stats,
                              MemoryWorkspace &ws)
{
    const MemoryWorkspace::StagedGroup &sg = ws.groups[g];
    const LineCodec &codec = codecFor(sg.mode);
    erasedInto(sg.base, sg.mode, ws.line.erased);
    ReadResult &out = ws.groupWhole[g];
    out.data.resize(codec.dataBytes());
    codec.decodeInto(ws.groupSlices[g], out.data, ws.line.erased,
                     ws.line, ws.line.dec);
    out.status = ws.line.dec.status;
    out.symbolsCorrected = ws.line.dec.symbolsCorrected;
    stats.deviceReads += codec.devices();
    if (ws.line.dec.status == DecodeStatus::Corrected)
        stats.corrected += ws.line.dec.symbolsCorrected;
    if (ws.line.dec.status == DecodeStatus::Detected)
        ++stats.dues;
}

void
ArccMemory::screenStagedGroups(MemoryStats &stats, MemoryWorkspace &ws)
{
    RsWorkspace &rws = ws.line.rs;
    constexpr std::size_t kLanes = RsWorkspace::kSoaLanes;
    std::size_t g = 0;
    while (g < ws.groups.size()) {
        if (ws.groups[g].slow) {
            decodeStagedGroup(g, stats, ws);
            ++g;
            continue;
        }
        const PageMode mode = ws.groups[g].mode;
        const LineCodec &codec = codecFor(mode);
        const ReedSolomon &rs = *codec.soaCodec();
        const int cw = codec.sliceBytes(); // codewords per group.
        const int dev = codec.devices();

        // Stage a run of consecutive same-mode groups into one SoA
        // block.  A slice row is symbol d of the group's cw
        // codewords, i.e. already transposed: staging is one row
        // memcpy per device.
        std::size_t h = g;
        int lanes = 0;
        while (h < ws.groups.size() && !ws.groups[h].slow &&
               ws.groups[h].mode == mode &&
               lanes + cw <= static_cast<int>(kLanes)) {
            const DeviceSlices &sl = ws.groupSlices[h];
            for (int d = 0; d < dev; ++d)
                std::memcpy(&rws.soa[static_cast<std::size_t>(d) *
                                         kLanes +
                                     lanes],
                            sl[d].data(), cw);
            lanes += cw;
            ++h;
        }

        rs.computeSyndromesSoa(rws.soa.data(), kLanes, lanes,
                               rws.syndSoa.data(),
                               rws.soaFlags.data());

        int lane0 = 0;
        for (std::size_t x = g; x < h; ++x, lane0 += cw) {
            bool flagged = false;
            for (int c = 0; c < cw; ++c)
                flagged = flagged || rws.soaFlags[lane0 + c] != 0;
            if (flagged) {
                // Same full pipeline (and stats) the serial path
                // runs; the screen cost is sunk but tiny.
                decodeStagedGroup(x, stats, ws);
                continue;
            }
            // Clean group -- the overwhelmingly common case: extract
            // the data symbols straight from the gathered slices,
            // exactly what decodeInto writes when every codeword is
            // clean.
            const DeviceSlices &sl = ws.groupSlices[x];
            ReadResult &out = ws.groupWhole[x];
            out.status = DecodeStatus::Clean;
            out.symbolsCorrected = 0;
            out.data.resize(codec.dataBytes());
            const int k = rs.k();
            for (int c = 0; c < cw; ++c)
                for (int s = 0; s < k; ++s)
                    out.data[c * k + s] = sl[s][c];
            stats.deviceReads += dev;
        }
        g = h;
    }
}

ReadResult
ArccMemory::extractLine(const ReadResult &whole, std::uint64_t addr,
                        std::uint64_t group_base)
{
    ReadResult res;
    extractLineInto(whole, addr, group_base, res);
    return res;
}

void
ArccMemory::extractLineInto(const ReadResult &whole, std::uint64_t addr,
                            std::uint64_t group_base, ReadResult &out)
{
    out.status = whole.status;
    out.symbolsCorrected = whole.symbolsCorrected;
    std::size_t off = static_cast<std::size_t>(addr - group_base) &
                      ~(kLineBytes - 1);
    out.data.assign(whole.data.begin() + off,
                    whole.data.begin() + off + kLineBytes);
}

ReadResult
ArccMemory::readWholeGroup(std::uint64_t addr)
{
    ++stats_.reads;
    PageMode mode = pageTable_.mode(pageOf(addr));
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    return readGroup(base, mode, stats_);
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data)
{
    writeGroup(addr, data, stats_);
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data,
                       MemoryStats &stats)
{
    static thread_local MemoryWorkspace scratch;
    writeGroup(addr, data, stats, scratch);
}

void
ArccMemory::writeGroup(std::uint64_t addr,
                       std::span<const std::uint8_t> data,
                       MemoryStats &stats, MemoryWorkspace &ws)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    ARCC_ASSERT(data.size() ==
                static_cast<std::size_t>(codec.dataBytes()));
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    codec.encodeInto(data, ws.line.slices, ws.line);
    storeGroup(base, mode, ws.line.slices);
    ++stats.writes;
    stats.deviceWrites += codec.devices();
}

void
ArccMemory::write(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    ARCC_ASSERT(data.size() == kLineBytes);
    ++stats_.writes;
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t group = groupBytes(mode);
    std::uint64_t base = addr & ~(group - 1);

    std::vector<std::uint8_t> buf;
    if (subLines(mode) == 1) {
        buf.assign(data.begin(), data.end());
    } else {
        // Read-modify-write: both (all) sub-lines of the group share
        // check symbols, so the whole group is re-encoded (this is why
        // the LLC evicts upgraded sub-lines together, Section 4.2.3).
        ReadResult whole = readGroup(base, mode, stats_);
        buf = std::move(whole.data);
        std::size_t off = static_cast<std::size_t>(addr - base) &
                          ~(kLineBytes - 1);
        std::copy(data.begin(), data.end(), buf.begin() + off);
    }
    DeviceSlices slices = codec.encode(buf);
    storeGroup(base, mode, slices);
    stats_.deviceWrites += codec.devices();
}

void
ArccMemory::setPageMode(std::uint64_t page, PageMode mode)
{
    PageMode old = pageTable_.mode(page);
    if (old == mode)
        return;
    if (mode != PageMode::Relaxed && !upgradedCodec_)
        fatal("scheme %s has no upgraded mode",
              toString(config_.scheme));
    if (mode == PageMode::Upgraded2 && !upgraded2Codec_)
        fatal("level-2 upgrade not enabled for this memory");

    // Read the whole page under the old code (correcting what we can),
    // then re-encode under the new one.  Only this page is touched.
    std::uint64_t page_base = page * kPageBytes;
    std::vector<std::uint8_t> content(kPageBytes);
    std::uint64_t old_group = groupBytes(old);
    for (std::uint64_t off = 0; off < kPageBytes; off += old_group) {
        ReadResult r = readGroup(page_base + off, old, stats_);
        std::copy(r.data.begin(), r.data.end(),
                  content.begin() + off);
    }

    pageTable_.setMode(page, mode);

    const LineCodec &codec = codecFor(mode);
    std::uint64_t new_group = groupBytes(mode);
    for (std::uint64_t off = 0; off < kPageBytes; off += new_group) {
        std::span<const std::uint8_t> chunk(content.data() + off,
                                            new_group);
        DeviceSlices slices = codec.encode(chunk);
        storeGroup(page_base + off, mode, slices);
        stats_.deviceWrites += codec.devices();
    }
}

void
ArccMemory::rawFill(std::uint64_t addr, std::uint8_t value)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    const int dpr = config_.devicesPerRank;
    for (int d = 0; d < codec.devices(); ++d) {
        Loc loc = locOf(base + (d / dpr) * kLineBytes);
        std::uint8_t *p = slicePtr(loc.channel, loc.rank, d % dpr, loc);
        std::memset(p, value, codec.sliceBytes());
    }
}

bool
ArccMemory::rawCheck(std::uint64_t addr, std::uint8_t value)
{
    return rawCheck(addr, value, LineWorkspace::forThisThread());
}

bool
ArccMemory::rawCheck(std::uint64_t addr, std::uint8_t value,
                     LineWorkspace &ws)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    gatherGroupInto(base, mode, ws.slices);
    for (const auto &s : ws.slices)
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(codec.sliceBytes()); ++i)
            if (s[i] != value)
                return false;
    return true;
}

std::vector<std::uint8_t>
ArccMemory::rawSnapshot(std::uint64_t addr)
{
    std::vector<std::uint8_t> snap;
    rawSnapshotInto(addr, snap);
    return snap;
}

void
ArccMemory::rawSnapshotInto(std::uint64_t addr,
                            std::vector<std::uint8_t> &out)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    const int dpr = config_.devicesPerRank;
    out.clear();
    for (int d = 0; d < codec.devices(); ++d) {
        Loc loc = locOf(base + (d / dpr) * kLineBytes);
        std::uint8_t *p = slicePtr(loc.channel, loc.rank, d % dpr, loc);
        out.insert(out.end(), p, p + codec.sliceBytes());
    }
}

void
ArccMemory::rawRestore(std::uint64_t addr,
                       std::span<const std::uint8_t> snapshot)
{
    PageMode mode = pageTable_.mode(pageOf(addr));
    const LineCodec &codec = codecFor(mode);
    std::uint64_t base = addr & ~(groupBytes(mode) - 1);
    const int dpr = config_.devicesPerRank;
    const int slice = codec.sliceBytes();
    ARCC_ASSERT(snapshot.size() ==
                static_cast<std::size_t>(codec.devices()) * slice);
    for (int d = 0; d < codec.devices(); ++d) {
        Loc loc = locOf(base + (d / dpr) * kLineBytes);
        std::uint8_t *p = slicePtr(loc.channel, loc.rank, d % dpr, loc);
        std::memcpy(p, snapshot.data() + d * slice, slice);
    }
}

void
ArccMemory::injectFault(const FunctionalFault &fault)
{
    ARCC_ASSERT(fault.channel >= 0 && fault.channel < config_.channels);
    ARCC_ASSERT(fault.device >= 0 &&
                fault.device < config_.devicesPerRank);
    faults_.push_back(fault);
}

void
ArccMemory::spareDevice(int channel, int rank, int device)
{
    auto &list = spared_[static_cast<std::size_t>(channel) *
                             config_.ranksPerChannel +
                         rank];
    if (std::find(list.begin(), list.end(), device) == list.end())
        list.push_back(device);
}

const std::vector<int> &
ArccMemory::sparedDevices(int channel, int rank) const
{
    return spared_[static_cast<std::size_t>(channel) *
                       config_.ranksPerChannel +
                   rank];
}

} // namespace arcc
