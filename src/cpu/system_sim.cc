/**
 * @file
 * System simulator implementation: the decoupled front-end /
 * channel-sharded back-end pipeline (see the header for the design).
 */

#include "cpu/system_sim.hh"

#include <algorithm>
#include <utility>

#include "arcc/scrubber.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "dram/channel_shard.hh"
#include "engine/sim_engine.hh"

namespace arcc
{

// ---------------------------------------------------------------------
// PageUpgradeOracle
// ---------------------------------------------------------------------

PageUpgradeOracle
PageUpgradeOracle::forScenario(Scenario s, const MemoryConfig &config)
{
    PageUpgradeOracle o;
    o.scenario_ = s;
    o.map_ = std::make_shared<AddressMap>(config, MapPolicy::HiPerf);
    int ranks = config.ranksPerChannel;
    int banks = config.device.banks;
    switch (s) {
      case Scenario::None:
        o.expected_ = 0.0;
        break;
      case Scenario::Lane:
        o.expected_ = 1.0;
        break;
      case Scenario::Device:
        o.expected_ = 1.0 / ranks;
        break;
      case Scenario::Bank:
        o.expected_ = 1.0 / (ranks * banks);
        break;
      case Scenario::Column:
        o.expected_ = 1.0 / (2.0 * ranks * banks);
        break;
      case Scenario::Fraction:
        fatal("use forFraction for the Fraction scenario");
    }
    return o;
}

PageUpgradeOracle
PageUpgradeOracle::forFraction(double fraction, const MemoryConfig &config)
{
    PageUpgradeOracle o;
    o.scenario_ = Scenario::Fraction;
    o.fraction_ = fraction;
    o.expected_ = fraction;
    o.map_ = std::make_shared<AddressMap>(config, MapPolicy::HiPerf);
    return o;
}

bool
PageUpgradeOracle::upgraded(std::uint64_t addr) const
{
    switch (scenario_) {
      case Scenario::None:
        return false;
      case Scenario::Lane:
        return true;
      case Scenario::Device: {
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0;
      }
      case Scenario::Bank: {
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0 && c.bank == 0;
      }
      case Scenario::Column: {
        // A column fault touches one column of one bank; under the
        // worst-case assumption every page whose half-row contains that
        // column is upgraded (half the pages of the bank, Table 7.4).
        DramCoord c = map_->decode(addr % map_->capacity());
        return c.rank == 0 && c.bank == 0 &&
               c.column < map_->linesPerRow() / 2;
      }
      case Scenario::Fraction: {
        // Deterministic per-page hash (splitmix64 finaliser).
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t z =
            Rng::mix64(page + 0x9e3779b97f4a7c15ULL);
        return (z >> 11) * 0x1.0p-53 < fraction_;
      }
    }
    return false;
}

const char *
PageUpgradeOracle::name(Scenario s)
{
    switch (s) {
      case Scenario::None:     return "no fault";
      case Scenario::Lane:     return "1 lane fault";
      case Scenario::Device:   return "1 device fault";
      case Scenario::Bank:     return "1 subbank fault";
      case Scenario::Column:   return "1 column fault";
      case Scenario::Fraction: return "fraction";
    }
    return "?";
}

PageUpgradeOracle::Scenario
PageUpgradeOracle::scenarioByName(const std::string &fault)
{
    if (fault == "none")
        return Scenario::None;
    if (fault == "lane")
        return Scenario::Lane;
    if (fault == "device")
        return Scenario::Device;
    if (fault == "bank")
        return Scenario::Bank;
    if (fault == "column")
        return Scenario::Column;
    fatal("unknown fault \"%s\" (none|lane|device|bank|column)",
          fault.c_str());
}

// ---------------------------------------------------------------------
// simulateStreams: the sharded pipeline
// ---------------------------------------------------------------------

namespace
{

/**
 * One recorded LLC access of one core (phase 1), with everything about
 * it that no latency pass can change resolved once: the address
 * reduced to the capacity, the upgrade verdict, the compute time
 * before it, and the coordinates a demand miss reads.
 */
struct RecordedAccess
{
    std::uint64_t addr = 0;
    /** Compute time before the access at the core's base IPC (ns). */
    double gapNs = 0.0;
    /** Index of the miss's coordinates in Recording::coords: the
     *  line, or the two sub-lines of its 128B pair when upgraded. */
    std::uint32_t coord = 0;
    bool isWrite = false;
    bool upgraded = false;
};

/** One core's recorded stream. */
struct CoreTrace
{
    std::vector<RecordedAccess> accesses;
    /** Instructions the stream covers (the budget or just past it).
     *  Full width: capping would desynchronise the recorded budget
     *  from the front-end's replayed one. */
    std::uint64_t instrs = 0;
};

/** Everything phase 1 draws and resolves; read-only afterwards. */
struct Recording
{
    std::vector<CoreTrace> cores;
    /** Demand-miss coordinates, indexed by RecordedAccess::coord. */
    std::vector<DramCoord> coords;
};

/** One memory request the front-end hands a channel shard. */
struct ChannelRequest
{
    double arrival = 0.0;
    /** Index of the coordinates (two back to back when paired): in
     *  Recording::coords for a demand read, in
     *  FrontendPass::writebackCoords for a write. */
    std::uint32_t coord = 0;
    /** Completion slot index; slots are globally unique, so the shard
     *  that owns this request writes the slot without synchronising. */
    std::uint32_t slot = 0;
    bool isWrite = false;
    bool paired = false;
};

/** The per-core timing ledger one front-end pass produces. */
struct CoreLedger
{
    /** Compute time + hit latencies + replacement charges (ns): the
     *  part of the core's finish time that memory cannot change. */
    double fixedNs = 0.0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    /** (completion slot, arrival ns) of every demand miss, in order. */
    std::vector<std::pair<std::uint32_t, double>> misses;
};

/** Everything one front-end pass produces.  One instance serves
 *  every pass of a run: each pass clears it, keeping the capacity. */
struct FrontendPass
{
    FrontendPass(std::size_t groups, std::size_t cores)
        : groupRequests(groups), cores(cores)
    {
    }

    void
    clear()
    {
        for (std::vector<ChannelRequest> &requests : groupRequests)
            requests.clear();
        writebackCoords.clear();
        for (CoreLedger &ledger : cores) {
            ledger.fixedNs = 0.0;
            ledger.llcAccesses = 0;
            ledger.llcMisses = 0;
            ledger.misses.clear();
        }
        slots = 0;
        estEndNs = 0.0;
        memReads = 0;
        memWrites = 0;
    }

    /** Arrival-ordered request stream of each channel shard group. */
    std::vector<std::vector<ChannelRequest>> groupRequests;
    /** Coordinates of this pass's writebacks: which lines the LLC
     *  evicts depends on the pass's arrival order. */
    std::vector<DramCoord> writebackCoords;
    std::vector<CoreLedger> cores;
    std::uint32_t slots = 0;
    /** Estimated end of the run (max estimated core finish, ns); the
     *  shards keep injecting scrub traffic until this time. */
    double estEndNs = 0.0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    LlcStats llcStats;
};

/** What one back-end shard returns through reduceShards. */
struct ShardPartial
{
    /** The shard's channel state (on the heap: partials move). */
    std::unique_ptr<ChannelSet> set;
    std::uint64_t scrubReads = 0;
    std::uint64_t scrubWrites = 0;
};

/**
 * Per-channel background-scrub state: walks the channel's coordinate
 * space one line per visit, `period / linesPerChannel` apart, so the
 * whole channel is swept once per period.  A visit's accesses (the
 * test-pattern read/write passes of one line) are *self-paced*: each
 * issues only after the previous one's data is back, like the real
 * scrubber state machine.  Self-pacing bounds the scrubber to one
 * outstanding request, so an unsustainably short period degrades to
 * continuous scrubbing instead of an unbounded request backlog --
 * and per-channel arrival order stays non-decreasing, which the
 * channel model requires.  Pure function of the configuration --
 * every shard derives the same cadence.
 */
struct ScrubCursor
{
    /** Due time of the next scrub access (ns). */
    double nextAt = 0.0;
    /** Cadence slot of the current line visit (ns). */
    double visitAt = 0.0;
    double intervalNs = 0.0;
    /** Which of the visit's accessesPerLine accesses is next. */
    int subIdx = 0;
    DramCoord coord;
    int ranks = 1;
    int banks = 1;
    std::uint32_t rows = 1;
    std::uint32_t columns = 1;

    ScrubCursor(int channel, const SystemConfig &config,
                const AddressMap &map)
    {
        coord.channel = channel;
        ranks = config.mem.ranksPerChannel;
        banks = config.mem.device.banks;
        rows = map.rows();
        columns = map.linesPerRow();
        double period_ns =
            config.backgroundScrub.periodHours * 3600.0 * 1e9;
        intervalNs =
            period_ns / static_cast<double>(map.linesPerChannel());
    }

    /**
     * Account one issued access that completed at `completion`;
     * schedules the next pattern pass (after the data is back) or,
     * at the end of the visit, the next line's cadence slot.
     */
    void
    issued(double completion, int accesses_per_line)
    {
        if (++subIdx < accesses_per_line) {
            nextAt = completion;
            return;
        }
        subIdx = 0;
        advanceLine();
        visitAt += intervalNs;
        nextAt = std::max(visitAt, completion);
    }

    /** Advance to the next line: column fastest, then bank, rank, row
     *  (wrapping), i.e. maximal bank rotation between visits. */
    void
    advanceLine()
    {
        if (++coord.column < columns)
            return;
        coord.column = 0;
        if (++coord.bank < banks)
            return;
        coord.bank = 0;
        if (++coord.rank < ranks)
            return;
        coord.rank = 0;
        if (++coord.row >= rows)
            coord.row = 0;
    }
};

/**
 * Append the coordinates of the line at `addr`, or of both sub-lines
 * of its 128B pair when `paired`.
 * @return the index of the (first) appended coordinates.
 */
std::uint32_t
appendCoords(std::vector<DramCoord> &coords, const AddressMap &map,
             const ChannelShardPlan &plan, std::uint64_t addr,
             bool paired)
{
    const auto idx = static_cast<std::uint32_t>(coords.size());
    if (paired) {
        std::uint64_t base = addr & ~(kUpgradedLineBytes - 1);
        coords.push_back(map.decode(base));
        coords.push_back(map.decode(base + kLineBytes));
        ARCC_ASSERT(plan.groupOf(coords[idx].channel) ==
                    plan.groupOf(coords[idx + 1].channel));
    } else {
        coords.push_back(map.decode(addr));
    }
    return idx;
}

/**
 * Record each core's access stream up to the instruction budget.  The
 * generators are pure per-core sequences (timing never feeds back),
 * so one recording serves every latency-feedback pass -- and so does
 * everything derived from an access alone, which is resolved here.
 */
Recording
recordTraces(std::vector<StreamSpec> &streams,
             const SystemConfig &config, const PageUpgradeOracle &oracle,
             const AddressMap &map, const ChannelShardPlan &plan)
{
    const double cycle_ns = 1.0 / config.cpuGhz;
    const std::uint64_t capacity = map.capacity();
    Recording rec;
    rec.cores.resize(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        CoreTrace &trace = rec.cores[i];
        do {
            CoreWorkload::Access a = streams[i].next();
            RecordedAccess r;
            r.addr = a.addr % capacity;
            r.gapNs = static_cast<double>(a.instrGap) /
                      streams[i].baseIpc * cycle_ns;
            r.isWrite = a.isWrite;
            r.upgraded = oracle.upgraded(r.addr);
            r.coord =
                appendCoords(rec.coords, map, plan, r.addr, r.upgraded);
            trace.accesses.push_back(r);
            trace.instrs += a.instrGap;
        } while (trace.instrs < config.instrsPerCore);
    }
    return rec;
}

/**
 * The LLC the front-end runs on: one per thread, rebuilt only when a
 * run asks for another design or geometry, and flushed by every pass.
 * A front-end pass never yields to the engine, so no two passes use
 * it at once; a job waiting on its channel shards (the engine may
 * stack dozens of them on one thread) holds no LLC of its own.
 */
BaseLlc &
threadLlc(const SystemConfig &config)
{
    static thread_local std::unique_ptr<BaseLlc> llc;
    static thread_local bool sectored = false;
    if (!llc || sectored != config.sectoredLlc ||
        !(llc->config() == config.llc)) {
        if (config.sectoredLlc)
            llc = std::make_unique<SectoredLlc>(config.llc);
        else
            llc = std::make_unique<PairedTagLlc>(config.llc);
        sectored = config.sectoredLlc;
    }
    return *llc;
}

/**
 * One front-end pass: the core + LLC event loop with per-core
 * estimated miss latencies, emitting the channel request streams into
 * `fe` (cleared first).
 */
void
runFrontend(const Recording &rec, const SystemConfig &config,
            const AddressMap &map, const ChannelShardPlan &plan,
            const std::vector<double> &estLatencyNs, FrontendPass &fe)
{
    const int n = static_cast<int>(rec.cores.size());
    fe.clear();
    BaseLlc &llc = threadLlc(config);
    llc.flush();

    auto emit = [&](ChannelRequest rq, const DramCoord &coord) {
        rq.slot = fe.slots++;
        fe.groupRequests[plan.groupOf(coord.channel)].push_back(rq);
        return rq.slot;
    };

    struct CoreState
    {
        double readyAt = 0.0;
        /** Estimated stall of one miss (ns). */
        double stallNs = 0.0;
        std::size_t idx = 0;
        bool done = false;
    };
    std::vector<CoreState> cores(n);
    for (int i = 0; i < n; ++i) {
        cores[i].readyAt = rec.cores[i].accesses[0].gapNs;
        cores[i].stallNs =
            estLatencyNs[i] * (1.0 - config.stallOverlap);
        fe.cores[i].fixedNs = cores[i].readyAt;
    }

    int active = n;
    while (active > 0) {
        // Pick the core whose pending access is earliest so every
        // channel sees non-decreasing arrival times.
        int ci = -1;
        double best = 0.0;
        for (int i = 0; i < n; ++i) {
            if (cores[i].done)
                continue;
            if (ci < 0 || cores[i].readyAt < best) {
                ci = i;
                best = cores[i].readyAt;
            }
        }
        CoreState &core = cores[ci];
        CoreLedger &ledger = fe.cores[ci];
        const std::vector<RecordedAccess> &trace = rec.cores[ci].accesses;
        const RecordedAccess &acc = trace[core.idx];
        double now = core.readyAt;

        LlcOutcome out = llc.access(acc.addr, acc.isWrite, acc.upgraded);

        ++ledger.llcAccesses;
        ledger.fixedNs += config.llc.hitLatencyNs;
        double done_at = now + config.llc.hitLatencyNs;
        if (!out.hit) {
            ++ledger.llcMisses;
            // Dirty evictions go to memory without stalling the core.
            for (const Writeback &wb : out.writebacks) {
                ChannelRequest rq;
                rq.arrival = now;
                rq.coord = appendCoords(fe.writebackCoords, map, plan,
                                        wb.addr, wb.paired);
                rq.isWrite = true;
                rq.paired = wb.paired;
                emit(rq, fe.writebackCoords[rq.coord]);
                ++fe.memWrites;
                if (wb.paired)
                    ++fe.memWrites; // both sub-lines hit the bus.
            }
            ChannelRequest rq;
            rq.arrival = now;
            rq.coord = acc.coord;
            rq.paired = acc.upgraded;
            std::uint32_t slot = emit(rq, rec.coords[acc.coord]);
            ++fe.memReads;
            if (acc.upgraded)
                ++fe.memReads;
            ledger.misses.emplace_back(slot, now);
            // Estimated stall; the merge replaces it with the stall
            // the shard replay actually measures.
            done_at += core.stallNs;
        }
        if (out.replaced) {
            done_at += config.llc.secondTagAccessNs;
            ledger.fixedNs += config.llc.secondTagAccessNs;
        }

        fe.estEndNs = std::max(fe.estEndNs, done_at);

        // The recording stops at the access that retires the budget.
        if (++core.idx == trace.size()) {
            core.done = true;
            --active;
            continue;
        }

        const double gap_ns = trace[core.idx].gapNs;
        core.readyAt = done_at + gap_ns;
        ledger.fixedNs += gap_ns;
    }

    fe.llcStats = llc.stats();
}

/**
 * One back-end shard: replay the group's request stream (merged with
 * its channels' scrub streams) through a private ChannelSet, writing
 * completions into this shard's disjoint slots.
 */
ShardPartial
replayShard(const SystemConfig &config, const AddressMap &map,
            const ChannelShardPlan &plan, std::size_t group,
            const Recording &rec, const FrontendPass &fe,
            std::vector<double> &completions)
{
    ShardPartial partial;
    partial.set = std::make_unique<ChannelSet>(config.mem, config.ctrl,
                                               plan.group(group));
    ChannelSet &set = *partial.set;

    const bool scrub_on = config.backgroundScrub.enabled;
    const int accesses_per_line = Scrubber::accessesPerLine(
        config.backgroundScrub.testPatterns);
    std::vector<ScrubCursor> cursors;
    if (scrub_on)
        for (int channel : plan.group(group))
            cursors.emplace_back(channel, config, map);

    // Issue the cursor's next scrub access: the pattern passes of one
    // line alternate read/write and self-pace on their completions.
    auto step = [&](ScrubCursor &cur) {
        bool is_write = (cur.subIdx % 2) == 1;
        double completion =
            set.access(cur.nextAt, cur.coord, is_write);
        if (is_write)
            ++partial.scrubWrites;
        else
            ++partial.scrubReads;
        cur.issued(completion, accesses_per_line);
    };
    // The earliest-due cursor (ties broken by vector order, which is
    // ascending channel id -- deterministic).
    auto dueCursor = [&](double before) -> ScrubCursor * {
        ScrubCursor *due = nullptr;
        for (ScrubCursor &cur : cursors)
            if (cur.nextAt <= before &&
                (!due || cur.nextAt < due->nextAt))
                due = &cur;
        return due;
    };

    for (const ChannelRequest &rq : fe.groupRequests[group]) {
        if (scrub_on)
            while (ScrubCursor *cur = dueCursor(rq.arrival))
                step(*cur);
        const DramCoord *c =
            (rq.isWrite ? fe.writebackCoords : rec.coords).data() +
            rq.coord;
        completions[rq.slot] =
            rq.paired ? set.accessPaired(rq.arrival, c[0], c[1],
                                         rq.isWrite)
                      : set.access(rq.arrival, c[0], rq.isWrite);
    }
    // Keep scrubbing through the rest of the run window: the traffic
    // is gone but the power (and the sweep cadence) is not.
    if (scrub_on)
        while (ScrubCursor *cur = dueCursor(fe.estEndNs))
            step(*cur);

    return partial;
}

} // anonymous namespace

SimResult
simulateStreams(std::vector<StreamSpec> streams,
                const SystemConfig &config,
                const PageUpgradeOracle &oracle, SimEngine *engine)
{
    if (config.cores < 1)
        fatal("simulateStreams: config.cores must be >= 1, got %d",
              config.cores);
    if (static_cast<int>(streams.size()) != config.cores)
        fatal("simulateStreams: config.cores is %d, got %zu streams",
              config.cores, streams.size());
    if (config.backgroundScrub.enabled &&
        config.backgroundScrub.periodHours <= 0.0)
        fatal("simulateStreams: backgroundScrub.periodHours must be "
              "> 0, got %g", config.backgroundScrub.periodHours);
    if (!engine)
        engine = &SimEngine::global();

    const double cycle_ns = 1.0 / config.cpuGhz;
    AddressMap map(config.mem, config.mapPolicy);
    ChannelShardPlan plan(map, oracle.mayUpgrade());

    // Phase 1: draw every core's access stream once.
    const Recording rec =
        recordTraces(streams, config, oracle, map, plan);

    std::vector<double> est_latency(
        streams.size(), config.mem.device.unloadedReadLatencyNs());

    // The decoupled model is a fixed point: the front-end spaces
    // arrivals by the estimated miss latency, the replay measures the
    // latency those arrivals produce.  Iterate (damped -- a saturated
    // channel oscillates undamped) until the measurement agrees with
    // the estimate, so the reported timeline is self-consistent: the
    // stalls the merge charges are the stalls the arrival spacing
    // actually caused.  The loop is pure arithmetic on deterministic
    // values, so the pass count never depends on the thread count.
    const int passes = std::max(1, config.latencyPasses);
    constexpr double kLatencyTolerance = 0.05;
    FrontendPass fe(plan.groups(), streams.size());
    std::vector<double> completions;
    std::vector<ShardPartial> partials;
    for (int pass = 0; pass < passes; ++pass) {
        // Phase 2: the serial core + LLC loop.
        runFrontend(rec, config, map, plan, est_latency, fe);
        completions.assign(fe.slots, 0.0);

        // Phase 3: one shard per channel group, bit-identical at any
        // thread count (fixed boundaries, disjoint completion slots,
        // shard-order merge).
        partials = engine->reduceShards(
            plan.groups(), 1,
            [&](const ShardRange &shard) {
                return replayShard(config, map, plan, shard.begin, rec,
                                   fe, completions);
            },
            [](std::vector<ShardPartial> &&p) { return std::move(p); });

        if (pass + 1 == passes)
            break;
        double worst_residual = 0.0;
        for (std::size_t i = 0; i < fe.cores.size(); ++i) {
            const CoreLedger &ledger = fe.cores[i];
            if (ledger.misses.empty())
                continue;
            double sum = 0.0;
            for (const auto &[slot, arrival] : ledger.misses)
                sum += completions[slot] - arrival;
            double measured =
                sum / static_cast<double>(ledger.misses.size());
            worst_residual =
                std::max(worst_residual,
                         std::abs(measured - est_latency[i]) /
                             est_latency[i]);
            est_latency[i] = 0.5 * (est_latency[i] + measured);
        }
        if (worst_residual < kLatencyTolerance)
            break;
    }

    // Phase 4: merge, in shard / core order on the calling thread.
    SimResult res;
    res.cores.resize(streams.size());
    double max_finish = 0.0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const CoreLedger &ledger = fe.cores[i];
        double finish = ledger.fixedNs;
        for (const auto &[slot, arrival] : ledger.misses)
            finish += (completions[slot] - arrival) *
                      (1.0 - config.stallOverlap);
        CoreResult &core = res.cores[i];
        core.benchmark = streams[i].name;
        // The recording phase drew the whole stream, so a trace's lap
        // counter is final by now.
        core.traceLaps = streams[i].laps ? streams[i].laps() : 0;
        core.instrs = rec.cores[i].instrs;
        core.ipc = static_cast<double>(core.instrs) /
                   (finish / cycle_ns);
        core.llcAccesses = ledger.llcAccesses;
        core.llcMisses = ledger.llcMisses;
        res.ipcSum += core.ipc;
        max_finish = std::max(max_finish, finish);
    }

    // The run ends when the last core retires its budget, exactly as
    // in the pre-sharding event loop; queue drain beyond that point
    // (already converged to near zero by the latency fixed point)
    // accrues its activity at commit time and needs no window.
    double end_time = max_finish;
    for (ShardPartial &partial : partials) {
        partial.set->finalize(end_time);
        const PowerBreakdown &p = partial.set->breakdown();
        res.power.dynamicNj += p.dynamicNj;
        res.power.backgroundNj += p.backgroundNj;
        res.power.refreshNj += p.refreshNj;
        res.scrubReads += partial.scrubReads;
        res.scrubWrites += partial.scrubWrites;
    }
    res.elapsedNs = end_time;
    res.avgPowerMw = res.power.avgPowerMw(end_time);
    res.llcStats = fe.llcStats;
    res.memReads = fe.memReads;
    res.memWrites = fe.memWrites;
    return res;
}

std::vector<SimResult>
simulateMixBatch(const std::vector<MixJob> &jobs, SimEngine *engine)
{
    if (!engine)
        engine = &SimEngine::global();
    // Shard-reduce with one job per shard: the partials vector the
    // merge receives *is* the result list in job order.  Each job's
    // own channel shards run nested on the same engine (the worker
    // executes queued shards while it waits, so this cannot
    // deadlock).
    return engine->reduceShards(
        jobs.size(), 1,
        [&](const ShardRange &shard) {
            const MixJob &job = jobs[shard.begin];
            return simulateMix(job.mix, job.config, job.oracle,
                               engine);
        },
        [](std::vector<SimResult> &&results) {
            return std::move(results);
        });
}

StreamSpec
syntheticStreamSpec(const std::string &benchmark,
                    std::uint64_t memBytes, int coreId,
                    std::uint64_t seed)
{
    const BenchmarkProfile &prof = benchmarkProfile(benchmark);
    auto wl =
        std::make_shared<CoreWorkload>(prof, memBytes, coreId, seed);
    StreamSpec spec;
    spec.name = prof.name;
    spec.baseIpc = prof.baseIpc;
    spec.next = [wl]() { return wl->next(); };
    return spec;
}

SimResult
simulateMix(const WorkloadMix &mix, const SystemConfig &config,
            const PageUpgradeOracle &oracle, SimEngine *engine)
{
    if (static_cast<int>(mix.benchmarks.size()) != config.cores)
        fatal("mix '%s' has %zu benchmarks but config.cores is %d",
              mix.name.c_str(), mix.benchmarks.size(), config.cores);

    // Capacity depends only on the memory config, not the controller.
    AddressMap map(config.mem, config.mapPolicy);
    std::vector<StreamSpec> streams;
    for (int i = 0; i < config.cores; ++i)
        streams.push_back(syntheticStreamSpec(
            mix.benchmarks[i], map.capacity(), i,
            mixCoreSeed(config.seed, i)));
    return simulateStreams(std::move(streams), config, oracle, engine);
}

} // namespace arcc
