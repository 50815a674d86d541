/**
 * @file
 * Tiny C++20 coroutine toolkit used to express simulated software.
 *
 * Simulated threads are coroutines that co_await on hardware: awaiting a
 * memory access suspends the coroutine until the corresponding response event
 * fires in the EventQueue. This keeps workloads readable (straight-line code)
 * while the simulation stays event-driven and deterministic.
 *
 *  - Task<T>:   lazily-started coroutine, awaitable, symmetric transfer.
 *  - Future<T>: externally-fulfilled completion (one waiter).
 *  - WaitList:  reusable condition wake list (notifyAll, FIFO).
 *  - delay():   awaitable that costs simulated cycles.
 *  - spawn():   runs a Task<> to completion as a root, returns a Join.
 *
 * Frames come from the thread-local FramePool (sim/frame_pool.hpp). A path
 * that takes zero simulated cycles should build no frame at all: return an
 * awaiter whose await_ready() does the work (Mmu::translate, Core::compute).
 */
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) const noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
    std::optional<T> value;

    Task<T> get_return_object();
    void return_value(T v) { value.emplace(std::move(v)); }

    T
    result()
    {
        if (exception)
            std::rethrow_exception(exception);
        MAPLE_ASSERT(value.has_value(), "task finished without a value");
        return std::move(*value);
    }
};

template <>
struct Promise<void> : PromiseBase {
    Task<void> get_return_object();
    void return_void() const noexcept {}

    void
    result() const
    {
        if (exception)
            std::rethrow_exception(exception);
    }
};

}  // namespace detail

/**
 * A lazily-started coroutine returning T. Owns its frame; moving transfers
 * ownership. co_await-ing a Task starts it and resumes the awaiter when the
 * task completes (symmetric transfer, no stack growth).
 */
template <typename T>
class [[nodiscard]] Task {
  public:
    using promise_type = detail::Promise<T>;

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task &&other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    /** Awaiter: starts the child task, resumes awaiter at completion. */
    auto
    operator co_await() &&
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) const noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            T await_resume() const { return h.promise().result(); }
        };
        return Awaiter{handle_};
    }

    /** Release ownership (used by spawn()). */
    std::coroutine_handle<promise_type> release() { return std::exchange(handle_, nullptr); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

/**
 * Handle to a spawned root task. Lets the harness detect completion and
 * rethrow any exception that escaped the coroutine.
 */
class Join {
  public:
    struct State {
        bool done = false;
        std::exception_ptr exception;
    };

    Join() : state_(std::make_shared<State>()) {}

    bool done() const { return state_->done; }

    /** Rethrows any stored exception; asserts completion. */
    void
    get() const
    {
        MAPLE_ASSERT(state_->done, "join on unfinished task");
        if (state_->exception)
            std::rethrow_exception(state_->exception);
    }

    std::shared_ptr<State> state() const { return state_; }

  private:
    std::shared_ptr<State> state_;
};

namespace detail {

/** Self-destroying wrapper coroutine used by spawn(). */
struct Detached {
    struct promise_type : PooledFrame {
        Detached get_return_object() const noexcept { return {}; }
        std::suspend_never initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const noexcept {}
        void unhandled_exception() const noexcept { std::terminate(); }
    };
};

inline Detached
spawnImpl(Task<void> task, std::shared_ptr<Join::State> st)
{
    try {
        co_await std::move(task);
    } catch (...) {
        st->exception = std::current_exception();
    }
    st->done = true;
}

inline Detached
spawnDetachedImpl(EventQueue &eq, Task<void> task)
{
    try {
        co_await std::move(task);
    } catch (...) {
        eq.reportTaskError(std::current_exception());
    }
}

}  // namespace detail

/**
 * Start @p task as a root coroutine. The frame self-destroys on completion.
 * @return a Join the caller can poll / get() after the EventQueue drains.
 */
inline Join
spawn(Task<void> task)
{
    Join join;
    detail::spawnImpl(std::move(task), join.state());
    return join;
}

/**
 * Start @p task as a detached root coroutine whose Join nobody will poll
 * (device-internal helpers: async scratchpad fills, LIMA workers, drain
 * engines). An exception escaping the task is routed to
 * EventQueue::reportTaskError and rethrown from the driving run() — with a
 * plain discarded spawn() it would be swallowed with the Join.
 */
inline void
spawnDetached(EventQueue &eq, Task<void> task)
{
    detail::spawnDetachedImpl(eq, std::move(task));
}

/** Awaiter returned by delay(). */
struct DelayAwaiter {
    EventQueue &eq;
    Cycle cycles;

    bool await_ready() const noexcept { return cycles == 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.scheduleResumeIn(cycles, h);
    }

    void await_resume() const noexcept {}
};

/**
 * Awaitable that suspends the coroutine for @p cycles simulated cycles.
 * Rides the EventQueue's pooled coroutine-resume path: suspending allocates
 * nothing, so delay() is free to sit on every hop of every hot loop.
 */
inline DelayAwaiter
delay(EventQueue &eq, Cycle cycles)
{
    return DelayAwaiter{eq, cycles};
}

/**
 * One-shot, externally-fulfilled completion carrying a copyable value of
 * type T. Any number of coroutines may await it (e.g. loads merged into one
 * cache MSHR); all are resumed in FIFO order when the value is set.
 * Fulfilling before the first await is fine.
 */
template <typename T>
class Future {
  public:
    Future() : state_(std::make_shared<State>()) {}

    /** Fulfil the future, resuming all waiters immediately (FIFO). */
    void
    set(T value) const
    {
        MAPLE_ASSERT(!state_->value.has_value(), "future fulfilled twice");
        state_->value.emplace(std::move(value));
        auto waiters = std::move(state_->waiters);
        state_->waiters.clear();
        for (auto w : waiters)
            w.resume();
    }

    bool ready() const { return state_->value.has_value(); }

    auto
    operator co_await() const
    {
        struct Awaiter {
            std::shared_ptr<State> st;

            bool await_ready() const noexcept { return st->value.has_value(); }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                st->waiters.push_back(h);
            }

            T await_resume() const { return *st->value; }
        };
        return Awaiter{state_};
    }

  private:
    struct State {
        std::optional<T> value;
        std::vector<std::coroutine_handle<>> waiters;
    };

    std::shared_ptr<State> state_;
};

/**
 * Reusable wake list for a condition that changes many times: a buffer slot
 * freeing, a lock releasing. Waiters loop on `while (!cond) co_await list;`
 * and the owner calls notifyAll() whenever the condition may have changed.
 *
 * notifyAll() moves the current waiters out and resumes them inline in FIFO
 * order, exactly as Future::set does, so a waiter that re-parks during the
 * notify joins the fresh list and wakes on the *next* notify. A notify with
 * no waiters does nothing, and the two waiter buffers are reused, so the
 * steady state allocates nothing (a one-shot Signal would need a fresh
 * shared state per notify). The list must outlive notifyAll(): unlike a
 * Signal copy, nothing keeps it alive while the waiters run.
 */
class WaitList {
  public:
    struct Awaiter {
        WaitList &list;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            list.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    Awaiter operator co_await() noexcept { return Awaiter{*this}; }

    /** Resume every current waiter (FIFO); re-waiters wait for the next. */
    void
    notifyAll()
    {
        if (waiters_.empty())
            return;
        std::vector<std::coroutine_handle<>> batch;
        batch.swap(waiters_);
        waiters_.swap(spare_);
        for (std::coroutine_handle<> h : batch)
            h.resume();
        batch.clear();
        spare_.swap(batch);
    }

    bool empty() const { return waiters_.empty(); }
    size_t size() const { return waiters_.size(); }

  private:
    std::vector<std::coroutine_handle<>> waiters_;
    std::vector<std::coroutine_handle<>> spare_;  ///< reused batch buffer
};

/** Future<> carrying no payload; used as a pure completion signal. */
struct Unit {};
using Signal = Future<Unit>;

}  // namespace maple::sim
