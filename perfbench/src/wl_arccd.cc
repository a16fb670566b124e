/**
 * @file
 * Workload `arccd`: an in-process ArccdServer on a Unix socket in the
 * run's scratch directory, driven closed-loop by one client
 * connection per engine thread.  Each cycle has a cold leg -- a
 * seed-generated pool of distinct valid requests split across the
 * clients, so every request misses the response cache -- and a warm
 * leg in which every client replays the whole pool in its own seeded
 * order, so every request hits.  One service layer, used two ways:
 * compute dominates the cold leg; parse, canonicalize, cache and
 * socket dominate the warm leg.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cpu/trace.hh"
#include "cpu/workloads.hh"
#include "dram/address_map.hh"
#include "dram/dram_params.hh"
#include "engine/sim_engine.hh"
#include "harness.hh"
#include "service/server.hh"

namespace perfbench
{

namespace
{

/**
 * Per-core instruction budget of mix and trace requests.  At 200K
 * instructions (about 6 ms a request) the cold latencies and the
 * request rate swung 2.5 to 5 times as far as campaign's and
 * sim_grid's did over the same minutes, most likely from the four
 * thread hand-offs each request makes (client, server reader, service
 * worker, server writer); at 1M (about 40 ms) they swing as far as
 * campaign's.
 */
constexpr std::uint64_t kReqInstrs = 1'000'000;
/** Pool composition per cycle (fixed, so cost does not vary with
 *  the seed): mix, trace and campaign requests. */
constexpr std::size_t kMixRequests = 192;
constexpr std::size_t kTraceRequests = 32;
constexpr std::size_t kCampaignRequests = 16;
constexpr std::uint64_t kCampaignChannels = 4096;
/** First cycle numbers of the traced run's second half and of the
 *  set-up warm-up pools (far from each other and from the first). */
constexpr std::uint64_t kSecondHalfCycle = 1ULL << 20;
constexpr std::uint64_t kWarmupCycle = 1ULL << 40;

/** One blocking client connection. */
class Client
{
  public:
    Client() = default;
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    connect(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        return ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    /** Send one request line and wait for its response line. */
    bool
    roundTrip(const std::string &line, std::string &reply)
    {
        std::string out = line + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n =
                ::write(fd_, out.data() + sent, out.size() - sent);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                reply.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** Everything set-up builds: trace files, the server, the clients. */
struct Rig
{
    std::vector<std::string> binaryTraces;
    std::vector<std::string> textTraces;
    std::unique_ptr<arcc::ArccdServer> server;
    std::vector<std::unique_ptr<Client>> clients;
};

std::unique_ptr<Rig>
buildRig(const RunArgs &args, arcc::SimEngine &engine, int index,
         Tally &tally)
{
    auto rig = std::make_unique<Rig>();
    const std::string dir =
        args.workDir + "/rig" + std::to_string(index);
    std::filesystem::create_directories(dir);
    const std::uint64_t memBytes =
        arcc::AddressMap(arcc::arccConfig()).capacity();
    const arcc::WorkloadMix &mix = arcc::table73Mixes()[0];
    for (int core = 0; core < 4; ++core) {
        for (bool binary : {true, false}) {
            const std::string path = dir + "/core" + std::to_string(core) +
                                     (binary ? ".bin" : ".txt");
            arcc::captureSyntheticTrace(
                mix.benchmarks[core], memBytes, core,
                arcc::mixCoreSeed(args.seed, core), kReqInstrs, path,
                binary);
            (binary ? rig->binaryTraces : rig->textTraces).push_back(path);
        }
    }
    arcc::ArccdServer::Options options;
    options.socketPath = dir + "/arccd.sock";
    options.service.workers = args.threads;
    options.service.engine = &engine;
    // Room for two cycles' pools: the warm leg always finds its pool,
    // and the resident set stops growing after two cycles.
    options.service.cache.maxEntries =
        2 * (kMixRequests + kTraceRequests + kCampaignRequests);
    rig->server = std::make_unique<arcc::ArccdServer>(options);
    std::string error;
    tally.check(rig->server->start(error),
                "arccd server starts (" + error + ")");
    for (int c = 0; c < args.threads; ++c) {
        rig->clients.push_back(std::make_unique<Client>());
        tally.check(rig->clients.back()->connect(options.socketPath),
                    "arccd client " + std::to_string(c) + " connects");
    }
    return rig;
}

std::string
pathsJson(const std::vector<std::string> &paths)
{
    std::string out = "[";
    for (std::size_t i = 0; i < paths.size(); ++i) {
        out += i ? ",\"" : "\"";
        out += paths[i];
        out += '"';
    }
    return out + "]";
}

/** The cycle's pool of distinct valid request lines. */
std::vector<std::string>
buildPool(std::uint64_t seed, std::uint64_t cycle, const Rig &rig)
{
    static const char *const configs[] = {"baseline", "arcc", "arcc4",
                                          "arcc8"};
    static const char *const faults[] = {"none", "lane", "device", "bank",
                                         "column"};
    arcc::Rng rng = arcc::Rng::stream(seed, cycle);
    const auto reqSeed = [&rng] {
        return std::to_string(rng.below(1ULL << 53));
    };
    // Every pool holds the 12 mixes equally often, and as often under
    // each config, so a cycle's cost does not depend on how many of
    // its requests drew the costlier mixes; a seeded rotation varies
    // which fault goes with which mix.
    static_assert(kMixRequests % 48 == 0, "4 configs x 12 mixes");
    const std::size_t rotation = rng.below(12);
    std::vector<std::string> pool;
    for (std::size_t i = 0; i < kMixRequests; ++i) {
        const std::string config = configs[i % 4];
        const std::size_t block = i / 4;
        const std::size_t mix = (block % 12 + block / 12 + rotation) % 12;
        std::string line = "{\"kind\":\"mix\",\"config\":\"" + config +
                           "\",\"mix\":\"Mix" + std::to_string(1 + mix) +
                           "\"";
        const std::size_t variant = block % 6;
        if (config != "baseline" && variant == 5) {
            char frac[32];
            std::snprintf(frac, sizeof frac, "%.3f",
                          static_cast<double>(rng.below(1001)) / 1000.0);
            line += ",\"fraction\":";
            line += frac;
        } else if (config != "baseline") {
            line += ",\"fault\":\"";
            line += faults[variant];
            line += '"';
        }
        line += ",\"instrs\":" + std::to_string(kReqInstrs) +
                ",\"seed\":" + reqSeed() + "}";
        pool.push_back(line);
    }
    for (std::size_t i = 0; i < kTraceRequests; ++i) {
        pool.push_back(
            std::string("{\"kind\":\"trace\",\"config\":\"") +
            (i % 4 < 2 ? "arcc" : "arcc4") + "\",\"fault\":\"" +
            (i % 2 ? "device" : "none") + "\",\"paths\":" +
            pathsJson(i % 8 < 4 ? rig.binaryTraces : rig.textTraces) +
            ",\"instrs\":" + std::to_string(kReqInstrs) +
            ",\"seed\":" + reqSeed() + "}");
    }
    for (std::size_t i = 0; i < kCampaignRequests; ++i) {
        pool.push_back("{\"kind\":\"campaign\",\"channels\":" +
                       std::to_string(kCampaignChannels) +
                       ",\"epoch_trials\":1024,\"shard_trials\":64,"
                       "\"seed\":" +
                       reqSeed() + "}");
    }
    return pool;
}

bool
isOk(const std::string &body)
{
    return body.rfind("{\"ok\":true", 0) == 0;
}

struct LoopResult
{
    std::vector<double> coldS;
    std::vector<double> hitS;
    /** Requests per second of each cycle (both legs). */
    std::vector<double> cycleRate;
    std::uint64_t requests = 0;
    std::uint64_t cycles = 0;
    double seconds = 0.0;

    // Serial in-process evaluation samples (traced loops only).
    std::vector<double> evalColdS;
    std::vector<double> evalHitUs;
    std::vector<double> parseUs;
    std::vector<double> parseTraceUs;
    std::vector<double> canonicalUs;
    std::vector<double> queueWaitMs;

    /** Requests per host second in the median cycle. */
    double rate() const { return median(cycleRate); }
};

/** Run `fn(client)` on one thread per client and join them all. */
template <class Fn>
void
onEveryClient(Rig &rig, Fn fn)
{
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < rig.clients.size(); ++c)
        threads.emplace_back([&fn, c] { fn(c); });
    for (std::thread &t : threads)
        t.join();
}

/**
 * The cycle's check: every cold body must be byte-equal to an
 * in-process evaluate of the same line on a fresh service.  A traced
 * loop evaluates serially, so each evaluation's time is its own, and
 * also times parse, canonicalization and a cached evaluate per line.
 */
void
checkCycle(const std::vector<std::string> &pool,
           const std::vector<std::string> &cold,
           const std::vector<double> &coldS, arcc::SimEngine &engine,
           Tracer &tracer, std::uint64_t base, LoopResult &out,
           Tally &tally)
{
    const std::size_t n = pool.size();
    const bool traced = tracer.enabled();
    const std::size_t lanes =
        traced ? 1 : static_cast<std::size_t>(engine.threads());
    arcc::SimService::Options options;
    options.workers = 1;
    options.engine = &engine;
    arcc::SimService fresh(options);
    std::vector<std::string> ref(n);
    std::vector<double> evalS(n);
    std::vector<std::thread> threads;
    for (std::size_t l = 0; l < lanes; ++l) {
        threads.emplace_back([&, l] {
            for (std::size_t i = l; i < n; i += lanes) {
                const double t0 = now();
                Scope span(tracer, "service.eval_cold", base + i);
                ref[i] = fresh.evaluate(pool[i]).body;
                evalS[i] = now() - t0;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < n; ++i)
        mismatched += ref[i] != cold[i];
    tally.check(mismatched == 0,
                "arccd: " + std::to_string(mismatched) + " of " +
                    std::to_string(n) +
                    " responses differ from an in-process evaluate");
    if (!traced)
        return;

    for (std::size_t i = 0; i < n; ++i) {
        double t0 = now();
        {
            Scope span(tracer, "service.eval_hit", base + i);
            fresh.evaluate(pool[i]);
        }
        out.evalHitUs.push_back((now() - t0) * 1e6);

        arcc::ServiceRequest req;
        std::string error;
        t0 = now();
        {
            Scope span(tracer, "service.parse", base + i);
            tally.check(arcc::ServiceRequest::parse(pool[i], req, error),
                        "arccd: pool line parses (" + error + ")");
        }
        const double parsed = now();
        (req.kind == arcc::ServiceRequestKind::Trace ? out.parseTraceUs
                                                     : out.parseUs)
            .push_back((parsed - t0) * 1e6);
        std::string key;
        std::uint64_t hash = 0;
        {
            Scope span(tracer, "service.canonical", base + i);
            key = req.canonical();
            hash = req.hash();
        }
        out.canonicalUs.push_back((now() - parsed) * 1e6);
        tally.check(!key.empty() && hash != 0,
                    "arccd: canonical form of a pool line");
        out.evalColdS.push_back(evalS[i]);
        out.queueWaitMs.push_back((coldS[i] - evalS[i]) * 1e3);
    }
}

/**
 * Closed loop of cycles (cold leg, then warm leg) until the cycles
 * themselves have taken `seconds`; each cycle's check runs between
 * cycles, off the clock, on `checkEngine`.
 */
LoopResult
timedLoop(Rig &rig, const RunArgs &args, arcc::SimEngine &checkEngine,
          Tracer &tracer, double seconds, std::uint64_t firstCycle,
          Tally &tally)
{
    LoopResult out;
    arcc::SimService &service = rig.server->service();
    const std::size_t clients = rig.clients.size();
    do {
        const double cycleStart = now();
        const std::uint64_t cycle = firstCycle + out.cycles++;
        const std::vector<std::string> pool =
            buildPool(args.seed, cycle, rig);
        const std::size_t n = pool.size();
        // Span ids: cold request i is cycle*(2+clients)*n + i, client
        // c's warm replay of it (1+c)*n further on, its check after.
        const std::uint64_t base = cycle * (2 + clients) * n;
        std::vector<std::string> cold(n);
        std::vector<double> coldS(n);
        std::vector<std::uint64_t> failed(clients, 0);

        arcc::ServiceStats before = service.stats();
        onEveryClient(rig, [&](std::size_t c) {
            for (std::size_t i = c; i < n; i += clients) {
                const double t0 = now();
                Scope span(tracer, "service.request", base + i);
                if (!rig.clients[c]->roundTrip(pool[i], cold[i]) ||
                    !isOk(cold[i]))
                    ++failed[c];
                coldS[i] = now() - t0;
            }
        });
        arcc::ServiceStats after = service.stats();
        tally.check(after.cacheHits == before.cacheHits,
                    "arccd cycle " + std::to_string(cycle) +
                        ": every cold request misses the cache");

        std::vector<std::vector<double>> hits(clients);
        before = after;
        onEveryClient(rig, [&](std::size_t c) {
            std::vector<std::size_t> order(n);
            for (std::size_t i = 0; i < n; ++i)
                order[i] = i;
            arcc::Rng rng = arcc::Rng::stream(args.seed ^ 0x77a3ULL,
                                              cycle * clients + c);
            for (std::size_t i = n; i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            std::string body;
            for (std::size_t i : order) {
                const double t0 = now();
                Scope span(tracer, "service.request",
                           base + (1 + c) * n + i);
                if (!rig.clients[c]->roundTrip(pool[i], body) ||
                    body != cold[i])
                    ++failed[c];
                hits[c].push_back(now() - t0);
            }
        });
        after = service.stats();
        const double cycleS = now() - cycleStart;
        tally.check(after.cacheHits - before.cacheHits == n * clients,
                    "arccd cycle " + std::to_string(cycle) +
                        ": every warm request hits the cache");

        std::uint64_t bad = 0;
        for (std::uint64_t f : failed)
            bad += f;
        tally.ops(n * (1 + clients), bad);
        out.requests += n * (1 + clients);
        out.seconds += cycleS;
        out.cycleRate.push_back(static_cast<double>(n * (1 + clients)) /
                                cycleS);
        for (const auto &h : hits)
            out.hitS.insert(out.hitS.end(), h.begin(), h.end());
        out.coldS.insert(out.coldS.end(), coldS.begin(), coldS.end());

        checkCycle(pool, cold, coldS, checkEngine, tracer,
                   base + (1 + clients) * n, out, tally);
    } while (out.seconds < seconds);
    return out;
}

/**
 * Set-up's warm-up: each client sends one mix, one trace and one
 * campaign request that the timed cycles never use, so the server,
 * the connections and the trace files are warm.  The mix request
 * always names Mix1 under `arcc`: mixes differ in cost, and with a
 * seeded choice set-up time followed the seed.
 */
void
warmUp(Rig &rig, const RunArgs &args, std::uint64_t cycle, Tally &tally)
{
    const std::vector<std::string> pool = buildPool(args.seed, cycle, rig);
    std::vector<std::uint64_t> failed(rig.clients.size(), 0);
    onEveryClient(rig, [&](std::size_t c) {
        const std::string mix =
            "{\"kind\":\"mix\",\"config\":\"arcc\",\"mix\":\"Mix1\","
            "\"instrs\":" +
            std::to_string(kReqInstrs) + ",\"seed\":" +
            std::to_string(arcc::Rng::mix64(args.seed ^ (cycle * 64 + c)) >>
                           11) +
            "}";
        std::string body;
        for (const std::string &line :
             {mix, pool[kMixRequests + c],
              pool[kMixRequests + kTraceRequests + c]})
            if (!rig.clients[c]->roundTrip(line, body) || !isOk(body))
                ++failed[c];
    });
    for (std::size_t c = 0; c < failed.size(); ++c)
        tally.check(failed[c] == 0, "arccd warm-up: client " +
                                        std::to_string(c) +
                                        " gets ok responses");
}

} // namespace

void
runArccd(Report &rep)
{
    const RunArgs &args = rep.args();
    Tally &tally = rep.tally();
    arcc::SimEngine engine(arcc::SimEngine::Options{args.threads});
    // The untraced check runs off the clock, so it may use every core.
    // The traced check times evaluations that queue_wait_ms compares
    // with served ones, so it runs on the serving engine.
    arcc::SimEngine wide(arcc::SimEngine::Options{args.maxThreads});

    // Set-up (five times, median reported): capture the text and
    // binary traces, start the server, connect the clients, and warm
    // them up.
    std::unique_ptr<Rig> rig;
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        if (rig)
            rig->server->stop();
        const double t0 = now();
        rig = buildRig(args, engine, i, tally);
        warmUp(*rig, args, kWarmupCycle + i, tally);
        setups.push_back(now() - t0);
    }
    rep.note("arccd: %zu clients, pool of %zu distinct requests per "
             "cycle (%zu mix, %zu trace, %zu campaign)",
             rig->clients.size(),
             kMixRequests + kTraceRequests + kCampaignRequests,
             kMixRequests, kTraceRequests, kCampaignRequests);

    double traceStart = 0.0;
    const LoopResult loop = measuredLoop(
        rep,
        [&](Tracer &t, double seconds, int half) {
            return timedLoop(*rig, args, t.enabled() ? engine : wide, t,
                             seconds, half * kSecondHalfCycle, tally);
        },
        "req/s", traceStart);
    const arcc::ServiceStats stats = rig->server->service().stats();
    const Summary cold = summarize(loop.coldS);
    const Summary hit = summarize(loop.hitS);
    rep.note("arccd: cold %s", describe(cold, 1e3, "ms").c_str());
    rep.note("arccd: hit %s", describe(hit, 1e6, "us").c_str());
    rep.note("arccd: req_per_s=%.1f over %" PRIu64 " cycles (%" PRIu64
             " requests) in %.3f s",
             loop.rate(), loop.cycles, loop.requests, loop.seconds);
    rep.note("arccd: service stats received=%" PRIu64 " ok=%" PRIu64
             " errors=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
             " coalesced=%" PRIu64 " evictions=%" PRIu64,
             stats.received, stats.ok, stats.errors, stats.cacheHits,
             stats.cacheMisses, stats.coalesced, stats.evictions);
    tally.check(stats.errors == 0, "arccd: the service reports no errors");

    rep.set("setup_s", median(setups));
    rep.set("work_per_s", loop.rate());
    rep.set("op_p50_ms", cold.p50 * 1e3);
    rep.set("op_p90_ms", cold.p90 * 1e3);

    rig->server->stop();
    if (!args.trace)
        return;
    const double lookups =
        static_cast<double>(stats.cacheHits + stats.cacheMisses);
    const double hitP50 = summarize(loop.evalHitUs).p50;
    rep.set("service.parse_us", summarize(loop.parseUs).p50);
    rep.set("service.parse_trace_us", summarize(loop.parseTraceUs).p50);
    rep.set("service.canonical_us", summarize(loop.canonicalUs).p50);
    rep.set("service.eval_hit_us", hitP50);
    rep.set("service.transport_us", hit.p50 * 1e6 - hitP50);
    rep.set("service.eval_cold_ms", summarize(loop.evalColdS).p50 * 1e3);
    rep.set("service.queue_wait_ms", summarize(loop.queueWaitMs).p50);
    rep.set("service.hit_ratio",
            lookups > 0 ? static_cast<double>(stats.cacheHits) / lookups
                        : 0.0);
    rep.set("service.coalesced", static_cast<double>(stats.coalesced));
    rep.set("service.errors", static_cast<double>(stats.errors));
    rep.analyzeTrace(traceStart, now());
}

} // namespace perfbench
