/**
 * @file
 * Implementation of the message sink, fatal()'s arcc::Error and the
 * terminate handler that turns an escaped arcc::Error into exit(1).
 */

#include "common/logging.hh"

#include <cstdarg>
#include <exception>

namespace arcc
{

namespace
{

/** Print "[<tag>] <message>" as one line on stderr. */
void
vlogMessage(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "[%s] ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

std::terminate_handler g_previousTerminate = nullptr;

/**
 * An arcc::Error nobody caught is a user error reaching the top of a
 * CLI: print it the way fatal() always has and exit(1).  Any other
 * exception -- or none -- goes to the handler installed before this
 * one, so panic()'s abort and a library bug's terminate are unchanged.
 */
[[noreturn]] void
onTerminate()
{
    if (const std::exception_ptr error = std::current_exception()) {
        try {
            std::rethrow_exception(error);
        } catch (const Error &e) {
            std::fprintf(stderr, "[fatal] %s\n", e.what());
            std::exit(1);
        } catch (...) {
        }
    }
    if (g_previousTerminate)
        g_previousTerminate();
    std::abort();
}

const bool g_terminateInstalled = [] {
    g_previousTerminate = std::set_terminate(onTerminate);
    return true;
}();

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list sized;
    va_copy(sized, args);
    const int length = std::vsnprintf(nullptr, 0, fmt, sized);
    va_end(sized);
    std::string message(length > 0 ? static_cast<std::size_t>(length)
                                   : 0, '\0');
    std::vsnprintf(message.data(), message.size() + 1, fmt, args);
    va_end(args);
    throw Error(message);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlogMessage("warn", fmt, args);
    va_end(args);
}

} // namespace arcc
