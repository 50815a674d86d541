/**
 * @file
 * Cooperative synchronization primitives for simulated software threads.
 * Because the whole simulation is single-OS-threaded and event-driven these
 * are purely logical; the *timing* cost of synchronization (e.g. atomics
 * hitting the LLC) is charged by the core model, not here.
 */
#pragma once

#include "sim/coro.hpp"
#include "sim/log.hpp"

namespace maple::sim {

/** Reusable N-party barrier for coroutines (epoch barrier in the workloads). */
class Barrier {
  public:
    explicit Barrier(unsigned parties) : parties_(parties)
    {
        MAPLE_ASSERT(parties > 0);
    }

    Task<void>
    wait()
    {
        if (++arrived_ == parties_) {
            arrived_ = 0;
            generation_.notifyAll();
            co_return;
        }
        co_await generation_;
    }

    unsigned parties() const { return parties_; }

  private:
    unsigned parties_;
    unsigned arrived_ = 0;
    WaitList generation_;
};

}  // namespace maple::sim
