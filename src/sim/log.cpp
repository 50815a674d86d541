#include "sim/log.hpp"

#include <cstdio>
#include <stdexcept>

#include "sim/error.hpp"

namespace maple::sim::detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throwing (instead of abort) lets the property-based tests assert that
    // invalid stimulus is rejected without killing the test binary.
    // PanicError derives from std::logic_error.
    throw PanicError(msg);
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // FatalError derives from std::runtime_error.
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    // stderr like warnings: binaries print their tables and JSON on stdout.
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

}  // namespace maple::sim::detail
