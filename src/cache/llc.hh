/**
 * @file
 * Last-level cache models with ARCC upgraded-line support.
 *
 * Section 4.2.3 of the paper needs the LLC to hold both relaxed 64B
 * lines and upgraded 128B lines, and to write *both* sub-lines of an
 * upgraded line back together (the four check symbols of each codeword
 * span both sub-lines).  Two designs are provided:
 *
 *  - PairedTagLlc (the paper's proposal): a conventional 64B-line LLC
 *    where each tag carries an "upgraded" bit.  The two sub-lines of an
 *    upgraded line land in adjacent sets (their addresses differ by one
 *    line).  The replacement policy uses the recency of the most
 *    recently used sub-line for both, and evicting one sub-line drags
 *    its sibling out with it.  Each replacement needs a second tag
 *    access (the caller charges the latency).
 *
 *  - SectoredLlc (the alternative the paper rejects): 128B sectors with
 *    two 64B sub-sector valid bits.  Costs effective capacity when
 *    spatial locality is low.
 */

#ifndef ARCC_CACHE_LLC_HH
#define ARCC_CACHE_LLC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace arcc
{

/** LLC geometry. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 1 * kMiB;
    int assoc = 16;
    int lineBytes = 64;
    /** Hit latency in ns (Table 7.2: 10 cycles). */
    double hitLatencyNs = 3.4;
    /** Extra latency charged per replacement second tag access (ns). */
    double secondTagAccessNs = 1.0;

    bool operator==(const CacheConfig &) const = default;
};

/** A writeback the cache wants sent to memory. */
struct Writeback
{
    std::uint64_t addr = 0;
    /** True when this is a paired 128B (upgraded-line) writeback. */
    bool paired = false;
};

/** Outcome of one LLC access. */
struct LlcOutcome
{
    bool hit = false;
    /** A replacement happened (charge the second tag access). */
    bool replaced = false;
    /** Dirty evictions to forward to memory. */
    std::vector<Writeback> writebacks;
};

/** Running LLC statistics. */
struct LlcStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pairedFills = 0;
    std::uint64_t pairedWritebacks = 0;

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) / total : 0.0;
    }
};

/** Interface shared by the two LLC designs. */
class BaseLlc
{
  public:
    explicit BaseLlc(const CacheConfig &config) : config_(config) {}
    virtual ~BaseLlc() = default;

    /**
     * Access one 64B line.
     *
     * @param addr     byte address (any alignment; line-aligned inside).
     * @param is_write  store (marks the line dirty).
     * @param upgraded the line belongs to an upgraded page: on a miss
     *                 the fill brings both sub-lines of the 128B pair.
     */
    virtual LlcOutcome access(std::uint64_t addr, bool is_write,
                              bool upgraded) = 0;

    const LlcStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Invalidate everything and zero the statistics (used between
     *  experiment phases and between simulator passes). */
    virtual void flush() = 0;

    /**
     * Structural self-check (debug hook): verifies the design's
     * internal invariants -- e.g. that every upgraded sub-line's
     * sibling is resident and also flagged.  @return true when sound.
     */
    virtual bool checkInvariants() const = 0;

  protected:
    CacheConfig config_;
    LlcStats stats_;
};

/** The paper's paired-tag 64B-line design. */
class PairedTagLlc : public BaseLlc
{
  public:
    explicit PairedTagLlc(const CacheConfig &config);

    LlcOutcome access(std::uint64_t addr, bool is_write,
                      bool upgraded) override;
    void flush() override;
    bool checkInvariants() const override;

  private:
    /** Tag of an invalid way: line addresses have their low bits clear. */
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    /** No way (a failed lookup). */
    static constexpr std::size_t kNoWay = ~std::size_t{0};
    /** Per-way state bits. */
    static constexpr std::uint8_t kDirty = 1;
    static constexpr std::uint8_t kUpgraded = 2;

    /** One scan of a set: the way holding the line (kNoWay on a
     *  miss) and, on a miss, the way a fill would take. */
    struct Probe
    {
        std::size_t hit = kNoWay;
        std::size_t victim = kNoWay;
    };

    std::uint64_t setOf(std::uint64_t line_addr) const;
    /** @return the way holding line_addr, or kNoWay. */
    std::size_t find(std::uint64_t line_addr) const;
    /** Look line_addr up; on a miss pick the first invalid way of its
     *  set, else the LRU way. */
    Probe probe(std::uint64_t line_addr) const;
    /** Remove a dragged-out sibling (its data left with the pair). */
    void dropSibling(std::uint64_t line_addr);
    /** Insert a line into `way`, evicting its occupant. */
    void fill(std::size_t way, std::uint64_t line_addr, bool dirty,
              bool upgraded, LlcOutcome &out);

    std::uint64_t sets_;
    /** Dense per-way arrays, sets_ x assoc: the line address (or
     *  kInvalid), the last-use clock and the state bits. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> flags_;
    std::uint64_t clock_ = 0;
};

/** The sectored alternative. */
class SectoredLlc : public BaseLlc
{
  public:
    explicit SectoredLlc(const CacheConfig &config);

    LlcOutcome access(std::uint64_t addr, bool is_write,
                      bool upgraded) override;
    void flush() override;
    bool checkInvariants() const override;

  private:
    struct Frame
    {
        bool valid = false;
        bool upgraded = false;
        bool subValid[2] = {false, false};
        bool subDirty[2] = {false, false};
        std::uint64_t frameAddr = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(std::uint64_t frame_addr) const;
    Frame *find(std::uint64_t frame_addr);
    int victimWay(std::uint64_t set) const;
    void evictFrame(Frame &f, LlcOutcome &out);

    std::uint64_t sets_;
    std::vector<Frame> frames_;
    std::uint64_t clock_ = 0;
};

} // namespace arcc

#endif // ARCC_CACHE_LLC_HH
