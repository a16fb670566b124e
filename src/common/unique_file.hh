/**
 * @file
 * An owning std::FILE handle.
 *
 * fatal() throws, and a throw out of a constructor skips that
 * object's destructor, so a raw FILE* opened before a fatal() leaks.
 * Holding it in a UniqueFile closes it on every path.
 */

#ifndef ARCC_COMMON_UNIQUE_FILE_HH
#define ARCC_COMMON_UNIQUE_FILE_HH

#include <cstdio>
#include <memory>

namespace arcc
{

/** Deleter for UniqueFile. */
struct FileCloser
{
    void operator()(std::FILE *file) const { std::fclose(file); }
};

/** std::fopen's result, closed when the owner goes away. */
using UniqueFile = std::unique_ptr<std::FILE, FileCloser>;

} // namespace arcc

#endif // ARCC_COMMON_UNIQUE_FILE_HH
