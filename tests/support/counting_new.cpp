#include "counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

}  // namespace

std::uint64_t
maple::support::heapAllocCount() noexcept
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

// The array and nothrow forms forward to these. All out of line, so the
// compiler never pairs an inlined malloc() or free() with the other side of
// a new/delete pair (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}
