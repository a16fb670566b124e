/**
 * @file
 * LLC model implementations.
 */

#include "cache/llc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arcc
{

namespace
{

/** Sibling 64B line of addr within its 128B pair. */
std::uint64_t
pairSibling(std::uint64_t line_addr)
{
    return line_addr ^ kLineBytes;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// PairedTagLlc
// ---------------------------------------------------------------------

PairedTagLlc::PairedTagLlc(const CacheConfig &config)
    : BaseLlc(config)
{
    sets_ = config.sizeBytes /
            (static_cast<std::uint64_t>(config.assoc) * config.lineBytes);
    ARCC_ASSERT(sets_ > 1 && (sets_ & (sets_ - 1)) == 0);
    tags_.resize(sets_ * config.assoc);
    lastUse_.resize(sets_ * config.assoc);
    flags_.resize(sets_ * config.assoc);
    flush();
}

std::uint64_t
PairedTagLlc::setOf(std::uint64_t line_addr) const
{
    return (line_addr / kLineBytes) & (sets_ - 1);
}

std::size_t
PairedTagLlc::find(std::uint64_t line_addr) const
{
    const std::size_t base = setOf(line_addr) * config_.assoc;
    for (int w = 0; w < config_.assoc; ++w)
        if (tags_[base + w] == line_addr)
            return base + w;
    return kNoWay;
}

PairedTagLlc::Probe
PairedTagLlc::probe(std::uint64_t line_addr) const
{
    const std::size_t base = setOf(line_addr) * config_.assoc;
    Probe p;
    for (int w = 0; w < config_.assoc; ++w) {
        if (tags_[base + w] == line_addr) {
            p.hit = base + w;
            return p;
        }
        if (tags_[base + w] == kInvalid && p.victim == kNoWay)
            p.victim = base + w;
    }
    if (p.victim != kNoWay)
        return p;
    // A full set: evict the first least-recently-used way.  The
    // recency of an upgraded line is kept synchronised with its
    // sibling on every touch, so lastUse already reflects the most
    // recently used sub-line (Section 4.2.3).
    p.victim = base;
    for (int w = 1; w < config_.assoc; ++w)
        if (lastUse_[base + w] < lastUse_[p.victim])
            p.victim = base + w;
    return p;
}

void
PairedTagLlc::dropSibling(std::uint64_t line_addr)
{
    std::size_t way = find(line_addr);
    if (way == kNoWay)
        return;
    tags_[way] = kInvalid;
    ++stats_.evictions;
}

void
PairedTagLlc::fill(std::size_t way, std::uint64_t line_addr, bool dirty,
                   bool upgraded, LlcOutcome &out)
{
    if (tags_[way] != kInvalid) {
        const std::uint64_t victim = tags_[way];
        const bool victim_upgraded = flags_[way] & kUpgraded;
        out.replaced = true;
        ++stats_.evictions;
        if (flags_[way] & kDirty) {
            Writeback wb;
            wb.addr = victim_upgraded
                          ? (victim & ~(kUpgradedLineBytes - 1))
                          : victim;
            wb.paired = victim_upgraded;
            out.writebacks.push_back(wb);
            if (victim_upgraded)
                ++stats_.pairedWritebacks;
        }
        if (victim_upgraded) {
            // Both sub-lines leave together; the sibling was already
            // covered by the paired writeback above.
            tags_[way] = kInvalid;
            dropSibling(pairSibling(victim));
        }
    }
    tags_[way] = line_addr;
    lastUse_[way] = clock_;
    flags_[way] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                            (upgraded ? kUpgraded : 0));
}

LlcOutcome
PairedTagLlc::access(std::uint64_t addr, bool is_write, bool upgraded)
{
    LlcOutcome out;
    ++clock_;
    std::uint64_t line_addr = addr & ~(kLineBytes - 1);

    const Probe p = probe(line_addr);
    if (p.hit != kNoWay) {
        out.hit = true;
        ++stats_.hits;
        lastUse_[p.hit] = clock_;
        if (is_write)
            flags_[p.hit] |= kDirty;
        if (flags_[p.hit] & kUpgraded) {
            // Keep the sibling's recency in sync (coupled recency).
            std::size_t sib = find(pairSibling(line_addr));
            if (sib != kNoWay)
                lastUse_[sib] = clock_;
        }
        return out;
    }

    ++stats_.misses;
    fill(p.victim, line_addr, is_write, upgraded, out);
    if (upgraded) {
        // The 128B fetch brings the sibling too.  Probe its set only
        // now: the fill above may have dragged a way of it out.
        const Probe s = probe(pairSibling(line_addr));
        if (s.hit == kNoWay)
            fill(s.victim, pairSibling(line_addr), /*dirty=*/false,
                 /*upgraded=*/true, out);
        else
            flags_[s.hit] |= kUpgraded;
        ++stats_.pairedFills;
    }
    return out;
}

void
PairedTagLlc::flush()
{
    std::fill(tags_.begin(), tags_.end(), kInvalid);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(flags_.begin(), flags_.end(), 0);
    clock_ = 0;
    stats_ = LlcStats{};
}

bool
PairedTagLlc::checkInvariants() const
{
    for (std::size_t way = 0; way < tags_.size(); ++way) {
        if (tags_[way] == kInvalid)
            continue;
        // Tag maps back to its set.
        if (setOf(tags_[way]) != way / config_.assoc)
            return false;
        if (!(flags_[way] & kUpgraded))
            continue;
        // Upgraded invariant: the sibling is resident in the adjacent
        // set and flagged.
        std::size_t sib = find(pairSibling(tags_[way]));
        if (sib == kNoWay || !(flags_[sib] & kUpgraded))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// SectoredLlc
// ---------------------------------------------------------------------

SectoredLlc::SectoredLlc(const CacheConfig &config)
    : BaseLlc(config)
{
    sets_ = config.sizeBytes / (static_cast<std::uint64_t>(config.assoc) *
                                kUpgradedLineBytes);
    ARCC_ASSERT(sets_ > 1 && (sets_ & (sets_ - 1)) == 0);
    frames_.assign(sets_ * config.assoc, Frame{});
}

std::uint64_t
SectoredLlc::setOf(std::uint64_t frame_addr) const
{
    return (frame_addr / kUpgradedLineBytes) & (sets_ - 1);
}

SectoredLlc::Frame *
SectoredLlc::find(std::uint64_t frame_addr)
{
    std::uint64_t set = setOf(frame_addr);
    Frame *base = &frames_[set * config_.assoc];
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].frameAddr == frame_addr)
            return &base[w];
    }
    return nullptr;
}

int
SectoredLlc::victimWay(std::uint64_t set) const
{
    const Frame *base = &frames_[set * config_.assoc];
    int victim = 0;
    std::uint64_t best = ~0ULL;
    for (int w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid)
            return w;
        if (base[w].lastUse < best) {
            best = base[w].lastUse;
            victim = w;
        }
    }
    return victim;
}

void
SectoredLlc::evictFrame(Frame &f, LlcOutcome &out)
{
    if (f.upgraded && (f.subDirty[0] || f.subDirty[1])) {
        Writeback wb;
        wb.addr = f.frameAddr;
        wb.paired = true;
        out.writebacks.push_back(wb);
        ++stats_.pairedWritebacks;
    } else {
        for (int s = 0; s < 2; ++s) {
            if (f.subValid[s] && f.subDirty[s]) {
                Writeback wb;
                wb.addr = f.frameAddr + s * kLineBytes;
                wb.paired = false;
                out.writebacks.push_back(wb);
            }
        }
    }
    f.valid = false;
    ++stats_.evictions;
}

LlcOutcome
SectoredLlc::access(std::uint64_t addr, bool is_write, bool upgraded)
{
    LlcOutcome out;
    ++clock_;
    std::uint64_t line_addr = addr & ~(kLineBytes - 1);
    std::uint64_t frame_addr = addr & ~(kUpgradedLineBytes - 1);
    int sub = static_cast<int>((line_addr - frame_addr) / kLineBytes);

    Frame *f = find(frame_addr);
    if (f && f->subValid[sub]) {
        out.hit = true;
        ++stats_.hits;
        f->lastUse = clock_;
        if (is_write)
            f->subDirty[sub] = true;
        return out;
    }

    ++stats_.misses;
    if (!f) {
        std::uint64_t set = setOf(frame_addr);
        int way = victimWay(set);
        Frame &slot = frames_[set * config_.assoc + way];
        if (slot.valid) {
            out.replaced = true;
            evictFrame(slot, out);
        }
        slot.valid = true;
        slot.upgraded = false;
        slot.subValid[0] = slot.subValid[1] = false;
        slot.subDirty[0] = slot.subDirty[1] = false;
        slot.frameAddr = frame_addr;
        f = &slot;
    }
    f->lastUse = clock_;
    f->subValid[sub] = true;
    f->subDirty[sub] = f->subDirty[sub] || is_write;
    if (upgraded) {
        f->upgraded = true;
        f->subValid[0] = f->subValid[1] = true;
        ++stats_.pairedFills;
    }
    return out;
}

void
SectoredLlc::flush()
{
    for (auto &f : frames_)
        f = Frame{};
    clock_ = 0;
    stats_ = LlcStats{};
}

bool
SectoredLlc::checkInvariants() const
{
    for (std::uint64_t set = 0; set < sets_; ++set) {
        for (int w = 0; w < config_.assoc; ++w) {
            const Frame &f = frames_[set * config_.assoc + w];
            if (!f.valid)
                continue;
            if (setOf(f.frameAddr) != set)
                return false;
            if (f.frameAddr % kUpgradedLineBytes != 0)
                return false;
            // An upgraded frame always holds both sub-sectors.
            if (f.upgraded && (!f.subValid[0] || !f.subValid[1]))
                return false;
            // A dirty sub-sector must be valid.
            for (int sx = 0; sx < 2; ++sx)
                if (f.subDirty[sx] && !f.subValid[sx])
                    return false;
        }
    }
    return true;
}

} // namespace arcc
