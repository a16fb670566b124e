/**
 * @file
 * Workload `scrub`: the functional ECC plane.  Set-up builds an
 * ARCC-over-commercial ArccMemory, fills it with a known pattern,
 * injects seeded faults (a corrupt device, a lane, hidden stuck-at
 * cells) and boot-scrubs it.  The timed part alternates a seeded
 * demand stream -- accessBatch reads with write / writeGroup writes
 * interleaved, about one write per three reads -- with scrubParallel
 * passes.  The only workload that decodes codewords, so a change to
 * ecc / arcc must move its numbers and nobody else's.
 */

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arcc/arcc_memory.hh"
#include "arcc/scrubber.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_workspace.hh"
#include "engine/sim_engine.hh"
#include "harness.hh"

#include <unistd.h>

namespace perfbench
{

namespace
{

/** Demand batches per round (each 64 reads plus its writes). */
constexpr int kBatchesPerRound = 64;
constexpr std::size_t kReadsPerBatch = 64;
/** First round number of the traced run's second half. */
constexpr std::uint64_t kSecondHalfRound = 1ULL << 20;
/** Hidden stuck-at cells injected at set-up. */
constexpr int kStuckCells = 8;
/**
 * Memories built at set-up; the timed rounds rotate over all of them.
 * Demand and scrub speed depend on where the memory's device arrays
 * land in physical memory (cache-set conflicts), which varies from
 * one construction to the next by up to a third, so a run that
 * measured a single memory would mostly measure its placement.
 */
constexpr int kRigs = 8;

arcc::FunctionalConfig
memoryConfig()
{
    arcc::FunctionalConfig c = arcc::FunctionalConfig::arccSmall();
    c.channels = 4;
    c.banks = 4;
    // 1 MiB of data: one memory fits a core's L2, so the timings
    // follow the codec and memory-model work rather than how much of
    // the shared L3 other tenants of the host hold at the time.
    c.rows = 16;
    return c;
}

/** The pattern line `line` holds at write version `version`. */
void
pattern(std::uint64_t seed, std::uint64_t line, std::uint32_t version,
        std::uint8_t *out)
{
    for (int k = 0; k < 8; ++k) {
        const std::uint64_t w = arcc::Rng::mix64(
            seed ^ (line * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(version) << 40) ^
            static_cast<std::uint64_t>(k));
        for (int b = 0; b < 8; ++b)
            out[k * 8 + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
}

/**
 * A draw from the `index`-th of kRigs equal strata of [0, n).  The
 * demand-read cost follows which device positions are bad, so a
 * run's memories take one position from every stratum and every run
 * covers the same spread of positions whatever its seed.
 */
int
stratified(arcc::Rng &rng, int index, int n)
{
    const int lo = index * n / kRigs;
    const int hi = (index + 1) * n / kRigs;
    return lo + static_cast<int>(rng.below(hi - lo));
}

/** Memory plus the shadow write versions the checks compare with. */
struct Rig
{
    std::unique_ptr<arcc::ArccMemory> memory;
    std::vector<std::uint32_t> version;
    arcc::ScrubReport boot;
    double bootS = 0.0;
};

std::unique_ptr<Rig>
buildRig(std::uint64_t seed, int index, arcc::SimEngine &engine,
         Tracer &tracer)
{
    auto rig = std::make_unique<Rig>();
    const arcc::FunctionalConfig cfg = memoryConfig();
    rig->memory = std::make_unique<arcc::ArccMemory>(cfg);
    arcc::ArccMemory &mem = *rig->memory;
    const std::uint64_t lines = mem.capacity() / arcc::kLineBytes;
    rig->version.assign(lines, 0);

    std::vector<std::uint8_t> data;
    for (std::uint64_t addr = 0; addr < mem.capacity();) {
        const std::uint64_t g =
            mem.groupBytes(mem.pageTable().mode(mem.pageOf(addr)));
        data.resize(g);
        for (std::uint64_t l = 0; l < g / arcc::kLineBytes; ++l)
            pattern(seed, addr / arcc::kLineBytes + l, 0,
                    data.data() + l * arcc::kLineBytes);
        mem.writeGroup(addr, data);
        addr += g;
    }

    // A corrupt device in channel 0, a lane in channel 2 and stuck-at
    // cells in channel 1's other rank: upgraded groups pair channels
    // (0,1) and (2,3), so no codeword ever sees two bad devices and
    // every fault stays correctable.
    arcc::Rng rng =
        arcc::Rng::stream(seed, 7 + static_cast<std::uint64_t>(index));
    const int rank0 = index % 2;
    arcc::FunctionalFault device;
    device.channel = 0;
    device.rank = rank0;
    device.device = stratified(rng, index, cfg.devicesPerRank);
    device.scope = arcc::FaultScope::Device;
    mem.injectFault(device);
    arcc::FunctionalFault lane;
    lane.channel = 2;
    lane.device =
        stratified(rng, (index + kRigs / 2) % kRigs, cfg.devicesPerRank);
    lane.scope = arcc::FaultScope::Lane;
    mem.injectFault(lane);
    for (int i = 0; i < kStuckCells; ++i) {
        arcc::FunctionalFault cell;
        cell.channel = 1;
        cell.rank = 1 - rank0;
        cell.device = static_cast<int>(rng.below(cfg.devicesPerRank));
        cell.scope = arcc::FaultScope::Cell;
        cell.kind = i % 2 ? arcc::FaultKind::StuckAt0
                          : arcc::FaultKind::StuckAt1;
        cell.bank = static_cast<int>(rng.below(cfg.banks));
        const int band = cfg.rows / kStuckCells;
        cell.row = i * band + static_cast<int>(rng.below(band));
        cell.col = static_cast<int>(rng.below(cfg.linesPerRow()));
        cell.mask = static_cast<std::uint8_t>(1u << rng.below(8));
        mem.injectFault(cell);
    }

    const double t0 = now();
    {
        Scope span(tracer, "arcc.boot_scrub");
        rig->boot = arcc::Scrubber().bootScrubParallel(mem, &engine);
    }
    rig->bootS = now() - t0;
    return rig;
}

struct LoopResult
{
    std::vector<double> batchS;
    std::vector<double> passS;
    double readS = 0.0;
    double writeS = 0.0;
    double scrubS = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t passes = 0;
    std::uint64_t corrected = 0;
    std::uint64_t dues = 0;
    std::uint64_t pagesUpgraded = 0;
    /** Data megabytes one scrub pass sweeps. */
    double passMb = 0.0;

    /** Scrub MB per host second at the median pass time. */
    double rate() const { return passMb / median(passS); }
};

/** Closed loop of rounds (demand batches, then one scrub pass), each
 *  round on the next memory in turn. */
LoopResult
timedLoop(std::vector<std::unique_ptr<Rig>> &rigs, std::uint64_t seed,
          arcc::SimEngine &engine, Tracer &tracer, double seconds,
          std::uint64_t firstRound, Tally &tally)
{
    LoopResult out;
    const arcc::Scrubber scrubber;
    std::vector<std::uint64_t> addrs(kReadsPerBatch);
    std::vector<std::uint8_t> expect(arcc::kLineBytes);
    std::vector<std::uint8_t> data;
    const double start = now();
    std::uint64_t round = firstRound;
    do {
        Rig &rig = *rigs[round % rigs.size()];
        arcc::ArccMemory &mem = *rig.memory;
        const std::uint64_t lines = mem.capacity() / arcc::kLineBytes;
        arcc::Rng rng = arcc::Rng::stream(seed ^ 0x5c2bULL, round);
        for (int b = 0; b < kBatchesPerRound; ++b) {
            const std::uint64_t id = round * kBatchesPerRound + b;
            for (std::uint64_t &a : addrs)
                a = rng.below(lines) * arcc::kLineBytes;
            const double t0 = now();
            std::vector<arcc::ReadResult> got;
            {
                Scope span(tracer, "arcc.read", id);
                got = mem.accessBatch(addrs);
            }
            const double t1 = now();
            std::uint64_t bad = 0;
            for (std::size_t i = 0; i < addrs.size(); ++i) {
                const std::uint64_t line = addrs[i] / arcc::kLineBytes;
                pattern(seed, line, rig.version[line], expect.data());
                bad += got[i].data != expect ||
                       got[i].status == arcc::DecodeStatus::Detected;
            }
            tally.ops(addrs.size(), bad);

            // One write per three reads, alternating single lines
            // (read-modify-write inside an upgraded group) and whole
            // groups.
            const double t2 = now();
            {
                Scope span(tracer, "arcc.write", id);
                for (std::size_t w = 0; w < kReadsPerBatch / 3; ++w) {
                    const std::uint64_t line = rng.below(lines);
                    const std::uint64_t addr = line * arcc::kLineBytes;
                    if (w % 2 == 0) {
                        pattern(seed, line, ++rig.version[line],
                                expect.data());
                        mem.write(addr, expect);
                        ++out.writes;
                        continue;
                    }
                    const std::uint64_t g = mem.groupBytes(
                        mem.pageTable().mode(mem.pageOf(addr)));
                    const std::uint64_t base = addr & ~(g - 1);
                    data.resize(g);
                    for (std::uint64_t l = 0; l < g / arcc::kLineBytes;
                         ++l) {
                        const std::uint64_t gl =
                            base / arcc::kLineBytes + l;
                        pattern(seed, gl, ++rig.version[gl],
                                data.data() + l * arcc::kLineBytes);
                    }
                    mem.writeGroup(base, data);
                    out.writes += g / arcc::kLineBytes;
                }
            }
            const double t3 = now();
            tally.ops(kReadsPerBatch / 3);
            out.readS += t1 - t0;
            out.writeS += t3 - t2;
            out.reads += addrs.size();
            out.batchS.push_back((t1 - t0) + (t3 - t2));
        }

        const double s0 = now();
        arcc::ScrubReport pass;
        {
            Scope span(tracer, "arcc.scrub", round);
            pass = scrubber.scrubParallel(mem, &engine);
        }
        out.passS.push_back(now() - s0);
        out.passMb = static_cast<double>(mem.capacity()) / 1e6;
        out.scrubS += out.passS.back();
        ++out.passes;
        out.corrected += pass.errorsCorrected;
        out.dues += pass.duesFound;
        out.pagesUpgraded += pass.pagesUpgraded;
        tally.ops(1, pass.duesFound != 0);
        ++round;
    } while (now() - start < seconds);
    return out;
}

/** Per-group decode status of the whole memory (one read-back). */
struct Readback
{
    std::uint64_t lines = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t dues = 0;
    /** Status of each group, in address order. */
    std::vector<bool> groupFlagged;
    std::vector<arcc::PageMode> groupMode;
};

Readback
readBack(Rig &rig, std::uint64_t seed)
{
    Readback out;
    arcc::ArccMemory &mem = *rig.memory;
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint8_t> expect(arcc::kLineBytes);
    for (std::uint64_t page = 0; page < mem.capacity() / arcc::kPageBytes;
         ++page) {
        addrs.clear();
        for (std::uint64_t a = page * arcc::kPageBytes;
             a < (page + 1) * arcc::kPageBytes; a += arcc::kLineBytes)
            addrs.push_back(a);
        const std::vector<arcc::ReadResult> got = mem.accessBatch(addrs);
        const arcc::PageMode mode = mem.pageTable().mode(page);
        const std::uint64_t perGroup =
            mem.groupBytes(mode) / arcc::kLineBytes;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            const std::uint64_t line = addrs[i] / arcc::kLineBytes;
            pattern(seed, line, rig.version[line], expect.data());
            out.mismatched += got[i].data != expect;
            out.dues += got[i].status == arcc::DecodeStatus::Detected;
            if (i % perGroup == 0) {
                out.groupFlagged.push_back(got[i].status !=
                                           arcc::DecodeStatus::Clean);
                out.groupMode.push_back(mode);
            }
            ++out.lines;
        }
    }
    return out;
}

/**
 * The ecc layer alone, over as many codewords as one scrub sweep
 * screens (four per group): seeded data is encoded, every codeword
 * of a group the read-back found corrected gets one symbol error
 * (each injected fault costs one device, hence one symbol, per
 * codeword), and the words are screened 32 lanes at a time through
 * ReedSolomon::computeSyndromesSoa; flagged words are then decoded.
 */
void
replayEcc(const Readback &rb, std::uint64_t seed, Report &rep,
          Tracer &tracer)
{
    constexpr int kLanes = arcc::RsWorkspace::kSoaLanes;
    constexpr int kWordsPerGroup = 4;
    const arcc::ReedSolomon relaxed(18, 16);
    const arcc::ReedSolomon upgraded(36, 32);
    arcc::RsWorkspace ws;
    arcc::Rng rng = arcc::Rng::stream(seed, 0xecc);

    double screenS = 0.0;
    double decodeS = 0.0;
    std::uint64_t screened = 0;
    std::uint64_t flagged = 0;
    std::uint64_t wrong = 0;
    for (const arcc::PageMode mode :
         {arcc::PageMode::Relaxed, arcc::PageMode::Upgraded}) {
        const arcc::ReedSolomon &rs =
            mode == arcc::PageMode::Relaxed ? relaxed : upgraded;
        const int n = rs.n();
        std::vector<std::vector<std::uint8_t>> words;
        std::vector<std::vector<std::uint8_t>> clean;
        for (std::size_t g = 0; g < rb.groupMode.size(); ++g) {
            if (rb.groupMode[g] != mode)
                continue;
            for (int w = 0; w < kWordsPerGroup; ++w) {
                std::vector<std::uint8_t> cw(n);
                for (int i = 0; i < rs.k(); ++i)
                    cw[i] = static_cast<std::uint8_t>(rng.next());
                rs.encode(cw);
                clean.push_back(cw);
                if (rb.groupFlagged[g])
                    cw[rng.below(n)] ^=
                        static_cast<std::uint8_t>(1 + rng.below(255));
                words.push_back(std::move(cw));
            }
        }
        std::vector<std::uint8_t> soa(n * kLanes);
        std::vector<std::uint8_t> synd((n - rs.k()) * kLanes);
        std::vector<std::uint8_t> flags(kLanes);
        std::vector<std::size_t> toDecode;
        for (std::size_t lo = 0; lo < words.size(); lo += kLanes) {
            const int lanes = static_cast<int>(
                std::min<std::size_t>(kLanes, words.size() - lo));
            for (int l = 0; l < lanes; ++l)
                for (int i = 0; i < n; ++i)
                    soa[i * kLanes + l] = words[lo + l][i];
            const double t0 = now();
            {
                Scope span(tracer, "ecc.screen", lo);
                rs.computeSyndromesSoa(soa.data(), kLanes, lanes,
                                       synd.data(), flags.data());
            }
            screenS += now() - t0;
            for (int l = 0; l < lanes; ++l)
                if (flags[l])
                    toDecode.push_back(lo + l);
        }
        screened += words.size();
        flagged += toDecode.size();
        const double t0 = now();
        {
            Scope span(tracer, "ecc.decode", static_cast<int>(mode));
            for (std::size_t w : toDecode)
                rs.decode(words[w], ws, 1);
        }
        decodeS += now() - t0;
        for (std::size_t w = 0; w < words.size(); ++w)
            wrong += words[w] != clean[w];
    }
    rep.tally().check(wrong == 0,
                      "scrub: ecc replay decodes every flagged word back "
                      "to its encoded data (" +
                          std::to_string(wrong) + " wrong)");
    rep.set("ecc.screen_s", screenS);
    rep.set("ecc.decode_s", decodeS);
    rep.set("ecc.flagged_ratio",
            screened ? static_cast<double>(flagged) /
                           static_cast<double>(screened)
                     : 0.0);
    rep.note("ecc: %" PRIu64 " words screened, %" PRIu64
             " flagged and decoded",
             screened, flagged);
}

} // namespace

void
runScrub(Report &rep)
{
    const RunArgs &args = rep.args();
    Tally &tally = rep.tally();
    arcc::SimEngine engine(arcc::SimEngine::Options{args.threads});

    // Set-up (once per memory, median reported): build, fill, inject,
    // boot-scrub.
    Tracer untraced(false);
    std::vector<std::unique_ptr<Rig>> rigs;
    std::vector<double> setups;
    for (int i = 0; i < kRigs; ++i) {
        const double t0 = now();
        rigs.push_back(buildRig(args.seed, i, engine, untraced));
        setups.push_back(now() - t0);
        tally.ops(1, rigs.back()->boot.duesFound != 0);
    }
    Rig &last = *rigs.back();
    const arcc::ArccMemory &mem = *last.memory;
    const double mib = 1024.0 * 1024.0;
    const double l3Mib =
        static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / mib;
    rep.note("scrub: %d memories of %.1f MiB of data in %llu pages (about "
             "%.1f MiB each with check symbols and shadow state) against "
             "a %.0f MiB host L3; boot scrub %.3f s corrected %" PRIu64
             ", upgraded %.0f%% of pages",
             kRigs, mem.capacity() / mib,
             static_cast<unsigned long long>(mem.capacity() /
                                             arcc::kPageBytes),
             (mem.capacity() * 72.0 / 64.0 + last.version.size() * 4.0) /
                 mib,
             l3Mib,
             last.bootS, last.boot.errorsCorrected,
             100.0 * mem.pageTable().upgradedFraction());

    double traceStart = 0.0;
    const LoopResult loop = measuredLoop(
        rep,
        [&](Tracer &t, double seconds, int half) {
            return timedLoop(rigs, args.seed, engine, t, seconds,
                             half * kSecondHalfRound, tally);
        },
        "scrub MB/s", traceStart);
    Tracer &tracer = rep.tracer();

    // Checks: one more parallel pass and a serial pass over the same
    // state must report the same; then every memory reads back as
    // written with no DUE.
    const arcc::Scrubber scrubber;
    double t0 = now();
    arcc::ScrubReport parallel;
    {
        Scope span(tracer, "arcc.scrub", 2000000);
        parallel = scrubber.scrubParallel(*last.memory, &engine);
    }
    const double parallelS = now() - t0;
    t0 = now();
    arcc::ScrubReport serial;
    {
        Scope span(tracer, "engine.scrub_serial");
        serial = scrubber.scrub(*last.memory);
    }
    const double serialS = now() - t0;
    tally.ops(2);
    tally.check(parallel == serial,
                "scrub: scrub and scrubParallel reports are equal");
    tally.check(parallel.duesFound == 0 && loop.dues == 0,
                "scrub: no DUE for the correctable faults");

    Readback rb;
    for (std::size_t i = 0; i < rigs.size(); ++i) {
        rb = readBack(*rigs[i], args.seed);
        tally.ops(rb.lines, rb.mismatched);
        tally.check(rb.mismatched == 0 && rb.dues == 0,
                    "scrub: memory " + std::to_string(i) +
                        " reads back as written (" +
                        std::to_string(rb.mismatched) + " lines differ, " +
                        std::to_string(rb.dues) + " DUEs)");
    }

    const Summary batch = summarize(loop.batchS);
    const double accessRate =
        static_cast<double>(loop.reads + loop.writes) / 1e6 /
        (loop.readS + loop.writeS);
    rep.note("scrub: scrub_mb_per_s=%.2f over %" PRIu64 " passes; "
             "access_mlines_per_s=%.3f (%" PRIu64 " reads, %" PRIu64
             " writes); demand batch %s",
             loop.rate(), loop.passes, accessRate, loop.reads,
             loop.writes, describe(batch, 1e3, "ms").c_str());

    rep.set("setup_s", median(setups));
    rep.set("work_per_s", loop.rate());
    rep.set("op_p50_ms", batch.p50 * 1e3);
    rep.set("op_p90_ms", batch.p90 * 1e3);

    if (!args.trace)
        return;
    rep.set("arcc.read_s", loop.readS);
    rep.set("arcc.reads", static_cast<double>(loop.reads));
    rep.set("arcc.write_s", loop.writeS);
    rep.set("arcc.writes", static_cast<double>(loop.writes));
    rep.set("arcc.scrub_s", loop.scrubS);
    {
        // One more memory built inside the traced window, so the boot
        // scrub has its span too.
        const std::unique_ptr<Rig> extra =
            buildRig(args.seed, 0, engine, tracer);
        rep.set("arcc.boot_scrub_s", extra->bootS);
    }
    rep.set("arcc.corrected", static_cast<double>(loop.corrected));
    rep.set("arcc.dues", static_cast<double>(loop.dues));
    rep.set("arcc.pages_upgraded",
            static_cast<double>(last.boot.pagesUpgraded +
                                loop.pagesUpgraded));
    rep.set("engine.scrub_efficiency",
            serialS / (parallelS * engine.threads()));
    replayEcc(rb, args.seed, rep, tracer);
    rep.analyzeTrace(traceStart, now());
}

} // namespace perfbench
