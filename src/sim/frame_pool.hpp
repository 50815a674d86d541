/**
 * @file
 * Thread-local free list for coroutine frames.
 *
 * Every simulated operation nests a few coroutine frames (a core load runs
 * Core::load -> Cache::request -> ...), so without a pool each op pays
 * several global operator new/delete calls. The promise types in
 * sim/coro.hpp route their frames here instead:
 *
 *  - Frames are rounded up to 64-byte size classes; each class keeps an
 *    intrusive LIFO free list per host thread. Frames above kMaxBytes fall
 *    through to ::operator new.
 *  - Every cached block is its own ::operator new allocation of its class
 *    size, so a frame freed on another thread (a ShardedEngine worker
 *    resuming a frame it did not create) simply joins *that* thread's list.
 *  - A thread's cached blocks are released when the thread exits. Frames
 *    freed after that go straight to ::operator delete, guarded by a
 *    trivially-destructible thread-local flag that outlives the thread's
 *    thread_local destructors.
 *  - AddressSanitizer builds bypass the pool at compile time: a recycled
 *    block would hide a use-after-free of a destroyed frame.
 *
 * The pool holds at most the peak number of live frames per class and
 * thread, so steady-state simulation allocates no frames at all.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace maple::sim {

namespace detail {

/** Whether this translation unit is built with AddressSanitizer; the only
 *  thing that turns the pool off. */
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kAddressSanitizer = true;
#else
inline constexpr bool kAddressSanitizer = false;
#endif
#else
inline constexpr bool kAddressSanitizer = false;
#endif

}  // namespace detail

class FramePool {
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 32;
    static constexpr std::size_t kMaxBytes = kGranule * kClasses;
    static constexpr bool kEnabled = !detail::kAddressSanitizer;

    /** The calling thread's pool counters (telemetry and tests). */
    struct Counts {
        std::uint64_t fresh = 0;      ///< blocks taken from ::operator new
        std::uint64_t cached = 0;     ///< blocks on this thread's free lists
        std::uint64_t oversized = 0;  ///< frames above kMaxBytes
    };

    static void *allocate(std::size_t bytes);
    static void deallocate(void *p, std::size_t bytes) noexcept;
    static Counts counts() noexcept;

  private:
    static void *allocateFresh(std::size_t cls);
    static void deallocateSlow(void *p, std::size_t bytes) noexcept;
    static void arm() noexcept;
    static void release() noexcept;
    static constexpr std::size_t classOf(std::size_t bytes) { return (bytes - 1) / kGranule; }

    friend struct FramePoolReaper;
};

namespace detail {

struct FreeBlock {
    FreeBlock *next;
};

/** One thread's pool. Constant-initialized and trivially destructible, so
 *  it stays readable while (and after) the thread's destructors run. */
struct FramePoolTls {
    enum State : unsigned char { Unarmed, Armed, Exited };

    FreeBlock *heads[FramePool::kClasses];
    FramePool::Counts counts;
    State state;  ///< Armed once the thread-exit release is registered
};

inline thread_local constinit FramePoolTls t_frame_pool{};

}  // namespace detail

inline void *
FramePool::allocate(std::size_t bytes)
{
    if constexpr (kEnabled) {
        detail::FramePoolTls &tls = detail::t_frame_pool;
        if (bytes <= kMaxBytes) {
            const std::size_t cls = classOf(bytes);
            if (detail::FreeBlock *b = tls.heads[cls]) {
                tls.heads[cls] = b->next;
                --tls.counts.cached;
                return b;
            }
            return allocateFresh(cls);
        }
        ++tls.counts.oversized;
    }
    return ::operator new(bytes);
}

inline void
FramePool::deallocate(void *p, std::size_t bytes) noexcept
{
    if constexpr (kEnabled) {
        detail::FramePoolTls &tls = detail::t_frame_pool;
        if (bytes <= kMaxBytes && tls.state == detail::FramePoolTls::Armed) {
            const std::size_t cls = classOf(bytes);
            auto *b = static_cast<detail::FreeBlock *>(p);
            b->next = tls.heads[cls];
            tls.heads[cls] = b;
            ++tls.counts.cached;
            return;
        }
        deallocateSlow(p, bytes);
    } else {
        ::operator delete(p);
    }
}

inline FramePool::Counts
FramePool::counts() noexcept
{
    return detail::t_frame_pool.counts;
}

/**
 * Mixin giving a coroutine promise pooled frame allocation. The compiler
 * finds these class-level operators when it allocates the coroutine frame.
 */
struct PooledFrame {
    static void *operator new(std::size_t bytes) { return FramePool::allocate(bytes); }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        FramePool::deallocate(p, bytes);
    }
};

}  // namespace maple::sim
