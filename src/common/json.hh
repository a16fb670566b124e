/**
 * @file
 * Minimal strict JSON for the service wire protocol.
 *
 * The daemon (service/) speaks newline-delimited JSON over a Unix
 * socket.  This is the parsing half: a small recursive-descent parser
 * into an ordered document tree, plus the two writer helpers the
 * canonical serializers share.  It is deliberately strict where
 * request identity is at stake:
 *
 *  - duplicate object keys are an error (a request whose "seed"
 *    appears twice must not silently take either one);
 *  - integer literals that fit are carried *exactly* (isUint /
 *    isInt), so 64-bit seeds and trial counts never round through a
 *    double;
 *  - the whole input must be one value -- trailing garbage is an
 *    error, not ignored.
 *
 * Parsing reports every failure through the error string rather than
 * fatal(): a malformed line is an expected input for the daemon, so
 * the parser hands back a message instead of throwing arcc::Error.
 */

#ifndef ARCC_COMMON_JSON_HH
#define ARCC_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace arcc::json
{

/** One JSON value; a tagged tree with insertion-ordered objects. */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    /** Every number as a double (the JSON model). */
    double number = 0.0;
    /** Set when the literal was integral and fits the type: the exact
     *  value, immune to double rounding past 2^53. */
    bool isInt = false;
    std::int64_t intValue = 0;
    bool isUint = false;
    std::uint64_t uintValue = 0;
    std::string str;
    std::vector<Value> array;
    /** Members in source order (duplicates rejected at parse time). */
    std::vector<std::pair<std::string, Value>> object;

    /** Member lookup; nullptr when absent (objects only). */
    const Value *find(std::string_view key) const;
};

/**
 * Parse exactly one JSON value from `text`.
 * @return true on success; false sets `error` to a message with a
 *         byte offset.
 */
bool parse(std::string_view text, Value &out, std::string &error);

/** Quote + escape a string for embedding in a JSON document. */
std::string quote(std::string_view s);

/**
 * Canonical number rendering: shortest-ish "%.17g", the same
 * formatting the bench jsonRow schema uses, so a double always
 * round-trips bit-exactly through its canonical text.
 */
std::string number(double v);

} // namespace arcc::json

#endif // ARCC_COMMON_JSON_HH
