/**
 * @file
 * Checked numeric parsing for command-line flags and environment
 * variables.
 *
 * Every CLI in the tree used to parse numbers with bare strtoull /
 * atoi, which coerce garbage to 0 and silently *wrap* negative input
 * ("--channels junk" became a 0-channel campaign, "--seed -1" a
 * 2^64-1 seed).  A batch binary limps along; a request-serving daemon
 * cannot.  These helpers accept exactly one well-formed number that
 * fits the target type and fatal() otherwise, naming the flag (or
 * environment variable) and the offending text, so every entry point
 * fails loudly at the argument, not mysteriously at the result.
 *
 * Syntax is strict: the whole string must be consumed, with no
 * leading or trailing whitespace and no '+' prefix.  Unsigned parsers
 * reject a '-' prefix outright instead of wrapping.
 * tests/test_parse_num.cc pins each CLI's flag spellings.
 */

#ifndef ARCC_COMMON_PARSE_NUM_HH
#define ARCC_COMMON_PARSE_NUM_HH

#include <cstdint>

namespace arcc
{

/**
 * Parse an unsigned 64-bit integer or fatal().
 * @param what flag / variable name for the diagnostic (e.g.
 *             "--channels" or "ARCC_THREADS").
 * @param text the value text as the user supplied it.
 */
std::uint64_t parseU64(const char *what, const char *text);

/** Parse a signed 64-bit integer or fatal(). */
std::int64_t parseI64(const char *what, const char *text);

/** Parse an unsigned 32-bit integer or fatal() (range-checked). */
std::uint32_t parseU32(const char *what, const char *text);

/** Parse an `int` or fatal() (range-checked). */
int parseInt(const char *what, const char *text);

/** Parse a finite double or fatal() (rejects nan / inf / garbage). */
double parseDouble(const char *what, const char *text);

/**
 * Read an unsigned 64-bit count from the environment.  Unset or empty
 * returns `fallback`; anything set but unparseable is fatal() -- the
 * ARCC_THREADS / ARCC_BENCH_* convention.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

} // namespace arcc

#endif // ARCC_COMMON_PARSE_NUM_HH
