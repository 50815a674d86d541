/**
 * @file
 * A counting replacement of the global operator new, for binaries that
 * assert or report how often a path allocates (test_sim, bench_host_perf).
 * Linking counting_new.cpp into a binary replaces the allocation functions
 * of that binary only.
 */
#pragma once

#include <cstdint>

namespace maple::support {

/** Global operator new calls so far, on every thread of this process. */
std::uint64_t heapAllocCount() noexcept;

}  // namespace maple::support
