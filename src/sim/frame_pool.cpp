#include "sim/frame_pool.hpp"

namespace maple::sim {

/** Releases the owning thread's cached blocks when the thread exits. */
struct FramePoolReaper {
    ~FramePoolReaper() { FramePool::release(); }
};

void
FramePool::arm() noexcept
{
    detail::t_frame_pool.state = detail::FramePoolTls::Armed;
    static thread_local FramePoolReaper reaper;
    (void)reaper;
}

void *
FramePool::allocateFresh(std::size_t cls)
{
    detail::FramePoolTls &tls = detail::t_frame_pool;
    if (tls.state == detail::FramePoolTls::Unarmed)
        arm();
    ++tls.counts.fresh;
    // Always the full class size: the block may be recycled for any frame of
    // this class, on any thread.
    return ::operator new((cls + 1) * kGranule);
}

void
FramePool::deallocateSlow(void *p, std::size_t bytes) noexcept
{
    // A thread whose first pool contact is a free (a frame created on
    // another thread) arms its release here; after the thread's exit, and
    // for oversized frames, blocks go straight back to the heap.
    if (bytes <= kMaxBytes &&
        detail::t_frame_pool.state == detail::FramePoolTls::Unarmed) {
        arm();
        deallocate(p, bytes);
        return;
    }
    ::operator delete(p);
}

void
FramePool::release() noexcept
{
    detail::FramePoolTls &tls = detail::t_frame_pool;
    tls.state = detail::FramePoolTls::Exited;
    for (detail::FreeBlock *&head : tls.heads) {
        while (detail::FreeBlock *b = head) {
            head = b->next;
            ::operator delete(b);
        }
    }
    tls.counts.cached = 0;
}

}  // namespace maple::sim
