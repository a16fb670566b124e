/**
 * @file
 * Shared plumbing for the bench binaries: the instruction budget and
 * the machine-readable jsonRow lines every bench prints beside its
 * human tables.
 *
 * The simulated instruction budget scales with ARCC_BENCH_INSTRS
 * (default one million per core, which reproduces the shapes in a few
 * seconds per figure; the paper used 2 billion cycles in M5).
 */

#ifndef ARCC_BENCH_BENCH_COMMON_HH
#define ARCC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parse_num.hh"
#include "common/rng.hh"
#include "engine/sim_engine.hh"

namespace arcc::bench
{

/** Per-core instruction budget (env ARCC_BENCH_INSTRS overrides;
 *  a set-but-unparseable value is fatal, never a silent zero). */
inline std::uint64_t
instrBudget()
{
    return envU64("ARCC_BENCH_INSTRS", 1'000'000);
}

/** Pre-format a counter / double for a jsonRow value. */
inline std::string
jsonNum(std::uint64_t v)
{
    return std::to_string(v);
}

inline std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Version of the jsonRow schema.  Bump when the row layout changes
 *  (fields added / removed / renamed) so downstream consumers can
 *  reject rows they do not understand. */
inline constexpr std::uint32_t kBenchSchemaVersion = 2;

/**
 * Stable hash of what shaped a row: schema version, bench family,
 * field-name list, and the instruction budget.  Deliberately excludes
 * the thread count and every field *value*, so CI's 1-vs-N-thread and
 * scalar-vs-SIMD diff legs see identical hashes and any mismatch
 * flags a real schema drift.
 */
inline std::uint64_t
rowConfigHash(const std::string &bench,
              const std::vector<std::pair<std::string, std::string>>
                  &fields)
{
    auto fold = [](std::uint64_t h, std::uint64_t v) {
        return Rng::mix64(h ^ v);
    };
    auto foldString = [&](std::uint64_t h, const std::string &s) {
        h = fold(h, s.size());
        for (char c : s)
            h = fold(h, static_cast<std::uint8_t>(c));
        return h;
    };
    std::uint64_t h = fold(0x524f5748ULL, kBenchSchemaVersion);
    h = foldString(h, bench);
    h = fold(h, instrBudget());
    for (const auto &[key, value] : fields)
        h = foldString(h, key);
    return h;
}

/**
 * Emit one machine-readable JSON line alongside the human tables.
 *
 * Every row carries the executor count of the global engine
 * (ARCC_THREADS / the hardware), the schema version, and the row's
 * config hash.  CI's 1-vs-N-thread diff normalises the "threads"
 * field and requires every other value to be bit-identical -- the
 * bench-level enforcement of the engine's determinism contract.
 */
inline void
jsonRow(const std::string &bench,
        const std::vector<std::pair<std::string, std::string>> &fields)
{
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      rowConfigHash(bench, fields)));
    std::string out = "{\"bench\":\"" + bench +
                      "\",\"schema_version\":" +
                      std::to_string(kBenchSchemaVersion) +
                      ",\"config_hash\":\"" + hash +
                      "\",\"threads\":" +
                      std::to_string(SimEngine::global().threads());
    for (const auto &[key, value] : fields)
        out += ",\"" + key + "\":" + value;
    out += "}";
    std::printf("%s\n", out.c_str());
}

} // namespace arcc::bench

#endif // ARCC_BENCH_BENCH_COMMON_HH
