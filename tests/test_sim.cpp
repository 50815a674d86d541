/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, coroutine
 * tasks, futures, wait lists, the frame pool, delays, barriers, stats.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>

#include "counting_new.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

using namespace maple::sim;

using maple::support::heapAllocCount;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
    });
    eq.run();
}

TEST(EventQueue, RunRespectsMaxCycles)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(100, [&] { fired = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(fired);
}

TEST(EventQueue, EarlyStopAdvancesTimeToMaxCycles)
{
    // Pinned semantics: run(t) that stops early leaves now() == t, so
    // back-to-back run(t1), run(t2) calls observe continuous time. Draining
    // leaves now() at the last executed event; an empty run is a no-op.
    EventQueue eq;
    EXPECT_TRUE(eq.run(10));
    EXPECT_EQ(eq.now(), 0u);  // nothing to do: time does not move
    eq.schedule(100, [] {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_FALSE(eq.run(70));
    EXPECT_EQ(eq.now(), 70u);
    EXPECT_TRUE(eq.run(100));
    EXPECT_EQ(eq.now(), 100u);  // drained: rests at the last event
    EXPECT_TRUE(eq.run(500));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, FarFutureEventsOverflowTheWheel)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle h = EventQueue::kWheelHorizon;
    eq.schedule(3 * h + 5, [&] { order.push_back(4); });
    eq.schedule(h + 1, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(2 * h, [&] { order.push_back(3); });
    EXPECT_GE(eq.overflowPending(), 3u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 3 * h + 5);
}

TEST(EventQueue, NextEventCyclePeeksWheelAndOverflow)
{
    // The sharded engine sizes its BSP windows off this peek; it must see
    // the true minimum whether the head event sits in the wheel or parked
    // in the overflow heap, without advancing anything.
    EventQueue eq;
    EXPECT_EQ(eq.nextEventCycle(), kCycleMax);

    const Cycle h = EventQueue::kWheelHorizon;
    eq.schedule(2 * h + 7, [] {});  // overflow only
    EXPECT_EQ(eq.nextEventCycle(), 2 * h + 7);
    eq.schedule(40, [] {});  // now the wheel holds the minimum
    EXPECT_EQ(eq.nextEventCycle(), 40u);
    EXPECT_EQ(eq.now(), 0u) << "peeking must not advance time";

    EXPECT_FALSE(eq.run(100));
    EXPECT_EQ(eq.nextEventCycle(), 2 * h + 7);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.nextEventCycle(), kCycleMax);
}

TEST(EventQueue, ChunkedRunsMatchOneShotRun)
{
    // The engine drives queues in quantum-sized chunks; a chunked run must
    // execute the identical sequence as a single run().
    auto seed = [](EventQueue &eq, std::vector<Cycle> &fired) {
        for (Cycle c : {3u, 70u, 70u, 2'000u, 90'000u})
            eq.schedule(c, [&] { fired.push_back(eq.now()); });
        eq.schedule(10, [&eq, &fired] {
            eq.scheduleIn(55, [&] { fired.push_back(eq.now()); });
        });
    };
    EventQueue once;
    std::vector<Cycle> once_fired;
    seed(once, once_fired);
    EXPECT_TRUE(once.run());

    EventQueue chunked;
    std::vector<Cycle> chunked_fired;
    seed(chunked, chunked_fired);
    Cycle bound = 0;
    while (chunked.nextEventCycle() != kCycleMax) {
        bound = chunked.nextEventCycle() + 64;
        chunked.run(bound);
    }
    EXPECT_EQ(chunked_fired, once_fired);
    EXPECT_EQ(chunked.executed(), once.executed());
}

TEST(EventQueue, OverflowAndDirectSameCycleKeepFifo)
{
    // An event parked in the overflow heap was scheduled strictly earlier
    // than any direct wheel event for the same cycle, so it must run first
    // once its cycle enters the wheel window.
    EventQueue eq;
    const Cycle h = EventQueue::kWheelHorizon;
    const Cycle target = 2 * h;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(1); });  // beyond horizon
    eq.schedule(target, [&] { order.push_back(2); });
    // Walk time to within the horizon of `target`, then schedule directly.
    eq.schedule(target - h / 2, [&] {
        eq.schedule(target, [&] { order.push_back(3); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, WheelBucketsAreReusedAcrossWindows)
{
    // Cycles c and c + horizon share a bucket index; the second only enters
    // the wheel after the first drained, and both run in time order.
    EventQueue eq;
    const Cycle h = EventQueue::kWheelHorizon;
    std::vector<Cycle> fired;
    for (Cycle c : {Cycle(7), 7 + h, 7 + 2 * h, 7 + h / 2})
        eq.schedule(c, [&fired, &eq] { fired.push_back(eq.now()); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Cycle>{7, 7 + h / 2, 7 + h, 7 + 2 * h}));
}

TEST(EventQueue, SchedulingDuringDispatchIsSafe)
{
    // Regression for the old kernel's const_cast move-out of heap_.top():
    // callbacks that schedule into the queue mid-dispatch (including enough
    // events to grow the node pool) must not invalidate the event being run.
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(1 + (i % 3), [&fired] { ++fired; });
        eq.scheduleIn(2 * EventQueue::kWheelHorizon, [&fired] { ++fired; });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1002);
    EXPECT_EQ(eq.executed(), 1002u);
}

TEST(EventQueue, ExecutedAndPendingStayConsistent)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    for (int i = 0; i < 10; ++i)
        eq.schedule(i + 1, [] {});
    eq.schedule(5 * EventQueue::kWheelHorizon, [] {});
    EXPECT_EQ(eq.pending(), 11u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.pending(), 10u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 11u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(eq.executed(), 11u);
}

TEST(EventQueue, PoolRecyclesNodesUnderChurn)
{
    // A bounded number of in-flight events must not grow the pool without
    // bound, no matter how many events pass through in total.
    EventQueue eq;
    std::uint64_t fired = 0;
    constexpr std::uint64_t kTotal = 100'000;
    constexpr int kChains = 32;
    std::vector<std::function<void()>> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
        chains[i] = [&eq, &fired, &chains, i] {
            if (++fired < kTotal)
                eq.scheduleIn(1 + (fired % (2 * EventQueue::kWheelHorizon)),
                              chains[i]);  // spans wheel and overflow deltas
        };
    }
    for (int i = 0; i < kChains; ++i)
        eq.scheduleIn(1 + i, chains[i]);
    EXPECT_TRUE(eq.run());
    // Once `fired` hits kTotal each chain stops; the other chains' in-flight
    // events still execute, so the total lands in [kTotal, kTotal + kChains).
    EXPECT_GE(eq.executed(), kTotal);
    EXPECT_LT(eq.executed(), kTotal + kChains);
    // At most kChains events were ever pending: one pool chunk suffices.
    EXPECT_LE(eq.poolAllocated(), 512u);
    EXPECT_EQ(eq.poolFree(), eq.poolAllocated());  // everything recycled
}

TEST(EventQueue, MatchesReferenceModelOnRandomStorm)
{
    // Determinism oracle: replay an identical random schedule storm through
    // the wheel kernel and a naive stable-sorted reference; the execution
    // order (event ids) must match exactly, including same-cycle ties that
    // straddle the wheel/overflow boundary.
    struct Ref {
        struct Ev {
            Cycle when;
            std::uint64_t seq;
            int id;
        };
        std::vector<Ev> pending;
        Cycle now = 0;
        std::uint64_t seq = 0;

        void
        schedule(Cycle when, int id)
        {
            pending.push_back({when, seq++, id});
        }

        bool
        popNext(Ev &out)
        {
            if (pending.empty())
                return false;
            size_t best = 0;
            for (size_t i = 1; i < pending.size(); ++i) {
                const Ev &a = pending[i], &b = pending[best];
                if (a.when < b.when || (a.when == b.when && a.seq < b.seq))
                    best = i;
            }
            out = pending[best];
            pending.erase(pending.begin() + best);
            now = out.when;
            return true;
        }
    };

    // Deterministic stimulus: each executed event decides its children from
    // an Rng stream keyed by its id, so both executions branch identically.
    auto childDeltas = [](int id) {
        Rng rng(0xabcd1234u + static_cast<std::uint64_t>(id));
        std::vector<Cycle> deltas;
        if (id < 4000) {
            unsigned n = static_cast<unsigned>(rng.below(3));
            for (unsigned i = 0; i < n; ++i)
                deltas.push_back(rng.below(3 * EventQueue::kWheelHorizon));
        }
        return deltas;
    };

    std::vector<int> real_order;
    {
        EventQueue eq;
        int next_id = 64;
        std::function<void(int)> body = [&](int id) {
            real_order.push_back(id);
            for (Cycle d : childDeltas(id)) {
                int child = next_id++;
                eq.scheduleIn(d, [&body, child] { body(child); });
            }
        };
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Cycle>(i % 7), [&body, i] { body(i); });
        EXPECT_TRUE(eq.run());
    }

    std::vector<int> ref_order;
    {
        Ref ref;
        int next_id = 64;
        for (int i = 0; i < 64; ++i)
            ref.schedule(static_cast<Cycle>(i % 7), i);
        Ref::Ev ev;
        while (ref.popNext(ev)) {
            ref_order.push_back(ev.id);
            for (Cycle d : childDeltas(ev.id))
                ref.schedule(ref.now + d, next_id++);
        }
    }

    ASSERT_EQ(real_order.size(), ref_order.size());
    EXPECT_EQ(real_order, ref_order);
}

namespace {

Task<int>
addLater(EventQueue &eq, int a, int b)
{
    co_await delay(eq, 10);
    co_return a + b;
}

Task<void>
outer(EventQueue &eq, int *result)
{
    int x = co_await addLater(eq, 2, 3);
    int y = co_await addLater(eq, x, 10);
    *result = y;
}

}  // namespace

TEST(Coro, NestedTasksPropagateValues)
{
    EventQueue eq;
    int result = 0;
    Join j = spawn(outer(eq, &result));
    eq.run();
    ASSERT_TRUE(j.done());
    j.get();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(Coro, ExceptionsSurfaceThroughJoin)
{
    EventQueue eq;
    auto thrower = [](EventQueue &q) -> Task<void> {
        co_await delay(q, 1);
        throw std::runtime_error("boom");
    };
    Join j = spawn(thrower(eq));
    eq.run();
    ASSERT_TRUE(j.done());
    EXPECT_THROW(j.get(), std::runtime_error);
}

TEST(Coro, FutureFulfilledBeforeAwait)
{
    EventQueue eq;
    Future<int> f;
    f.set(42);
    int got = 0;
    auto waiter = [&]() -> Task<void> { got = co_await f; };
    Join j = spawn(waiter());
    eq.run();
    j.get();
    EXPECT_EQ(got, 42);
}

TEST(Coro, FutureResumesMultipleWaitersFifo)
{
    EventQueue eq;
    Future<int> f;
    std::vector<int> order;
    auto waiter = [&](int id) -> Task<void> {
        int v = co_await f;
        order.push_back(id * 100 + v);
    };
    Join j1 = spawn(waiter(1));
    Join j2 = spawn(waiter(2));
    Join j3 = spawn(waiter(3));
    eq.schedule(5, [&] { f.set(7); });
    eq.run();
    j1.get();
    j2.get();
    j3.get();
    EXPECT_EQ(order, (std::vector<int>{107, 207, 307}));
}

TEST(Coro, FutureDoubleSetPanics)
{
    Future<int> f;
    f.set(1);
    EXPECT_THROW(f.set(2), std::logic_error);
}

TEST(Coro, ZeroDelayDoesNotSuspend)
{
    EventQueue eq;
    bool done = false;
    auto t = [&]() -> Task<void> {
        co_await delay(eq, 0);
        done = true;
    };
    spawn(t());
    // No events needed: the task completed synchronously at spawn.
    EXPECT_TRUE(done);
}

TEST(WaitList, ResumesWaitersFifo)
{
    WaitList list;
    std::vector<int> order;
    auto waiter = [&](int id) -> Task<void> {
        co_await list;
        order.push_back(id);
    };
    Join a = spawn(waiter(1));
    Join b = spawn(waiter(2));
    Join c = spawn(waiter(3));
    EXPECT_EQ(list.size(), 3u);
    list.notifyAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(list.empty());
    a.get();
    b.get();
    c.get();
}

TEST(WaitList, RewaiterWaitsForTheNextNotify)
{
    // Same semantics as re-creating a Signal per notify: a waiter that parks
    // again while being resumed joins the fresh list, and a notify issued
    // from inside a resumed waiter wakes only the fresh list, inline, before
    // the outer notify resumes its remaining waiters.
    WaitList list;
    std::vector<std::string> log;
    auto twice = [&]() -> Task<void> {
        co_await list;
        log.push_back("a1");
        co_await list;
        log.push_back("a2");
    };
    auto notifier = [&]() -> Task<void> {
        co_await list;
        log.push_back("b");
        list.notifyAll();
    };
    auto once = [&]() -> Task<void> {
        co_await list;
        log.push_back("c");
    };
    Join a = spawn(twice());
    Join b = spawn(notifier());
    Join c = spawn(once());
    list.notifyAll();
    EXPECT_EQ(log, (std::vector<std::string>{"a1", "b", "a2", "c"}));
    EXPECT_TRUE(list.empty());
    a.get();
    b.get();
    c.get();

    // Without the nested notify, the re-waiter stays parked until the next.
    log.clear();
    Join d = spawn(twice());
    list.notifyAll();
    EXPECT_EQ(log, (std::vector<std::string>{"a1"}));
    EXPECT_EQ(list.size(), 1u);
    list.notifyAll();
    EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2"}));
    d.get();
}

TEST(WaitList, NotifyAllocatesNothing)
{
    WaitList list;
    std::uint64_t before = heapAllocCount();
    for (int i = 0; i < 1000; ++i)
        list.notifyAll();
    EXPECT_EQ(heapAllocCount() - before, 0u)
        << "a notify with no waiters must not allocate";

    // A waiter parking and waking in a loop reuses the list's buffers (and,
    // with the frame pool, its frame): after warm-up, no allocation at all.
    int wakes = 0;
    bool stop = false;
    auto loop = [&]() -> Task<void> {
        while (!stop) {
            co_await list;
            ++wakes;
        }
    };
    Join j = spawn(loop());
    list.notifyAll();
    list.notifyAll();
    before = heapAllocCount();
    for (int i = 0; i < 1000; ++i)
        list.notifyAll();
    EXPECT_EQ(heapAllocCount() - before, 0u);
    EXPECT_EQ(wakes, 1002);
    stop = true;
    list.notifyAll();
    j.get();
}

namespace {

Task<int>
chainLevel(EventQueue &eq, int depth)
{
    if (depth == 0) {
        co_await delay(eq, 1);
        co_return 1;
    }
    int below = co_await chainLevel(eq, depth - 1);
    co_return below + 1;
}

}  // namespace

TEST(FramePool, NestedChainReusesBlocksUpToPeakNesting)
{
    if (!FramePool::kEnabled)
        GTEST_SKIP() << "frame pool bypassed in this build (AddressSanitizer)";
    EventQueue eq;
    const FramePool::Counts before = FramePool::counts();
    // Per iteration: the spawn wrapper, the root task and a 4-deep Task
    // chain below it, all live at once at the bottom's delay.
    constexpr std::uint64_t kPeakFrames = 1 + 1 + 4;
    int sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        auto root = [&]() -> Task<void> { sum += co_await chainLevel(eq, 3); };
        Join j = spawn(root());
        eq.run();
        j.get();
    }
    EXPECT_EQ(sum, 40'000);
    const FramePool::Counts after = FramePool::counts();
    EXPECT_LE(after.fresh - before.fresh, kPeakFrames)
        << "fresh blocks must be bounded by peak nesting, not by iterations";
    EXPECT_EQ(after.cached - before.cached, after.fresh - before.fresh)
        << "every frame returns to the free list";
    EXPECT_EQ(after.oversized, before.oversized);
}

TEST(FramePool, OversizedFrameFallsThrough)
{
    if (!FramePool::kEnabled)
        GTEST_SKIP() << "frame pool bypassed in this build (AddressSanitizer)";
    EventQueue eq;
    std::uint64_t seen = 0;
    auto big = [&]() -> Task<void> {
        // Live across the suspension, so it is stored in the frame.
        std::array<std::uint8_t, 2 * FramePool::kMaxBytes> buf{};
        buf[eq.now() % buf.size()] = 7;
        co_await delay(eq, 1);
        for (std::uint8_t b : buf)
            seen += b;
    };
    Task<void> t = big();  // frame allocated here (lazy start)
    const FramePool::Counts mid = FramePool::counts();
    Join j = spawn(std::move(t));
    eq.run();
    j.get();
    EXPECT_EQ(seen, 7u);
    const FramePool::Counts after = FramePool::counts();
    EXPECT_GE(mid.oversized, 1u);
    // The oversized frame never entered a free list: freeing it changed the
    // cache only by the spawn wrapper's recycled frame.
    EXPECT_EQ(after.oversized, mid.oversized);
    EXPECT_LE(after.cached - mid.cached, 1u);
}

TEST(FramePool, FrameFreedOnAnotherThreadJoinsThatThreadsList)
{
    // Runs in every build: without the pool (AddressSanitizer) it still
    // checks that the hand-off and both thread exits free the frame once.
    auto body = []() -> Task<int> { co_return 5; };
    Task<int> task;
    std::uint64_t made_fresh = 0;
    std::thread maker([&] {
        task = body();
        made_fresh = FramePool::counts().fresh;
    });
    maker.join();  // the maker thread exits with the frame still live

    FramePool::Counts freed_before, freed_after;
    std::thread freer([&] {
        freed_before = FramePool::counts();
        task = Task<int>{};  // destroys the frame on this thread
        freed_after = FramePool::counts();
    });
    freer.join();
    if (!FramePool::kEnabled)
        return;
    EXPECT_EQ(made_fresh, 1u);
    EXPECT_EQ(freed_before.cached, 0u);
    EXPECT_EQ(freed_after.cached, 1u) << "the block joins the freeing thread";
    EXPECT_EQ(freed_after.fresh, 0u);
}

TEST(Barrier, ReleasesAllPartiesTogether)
{
    EventQueue eq;
    Barrier bar(3);
    std::vector<Cycle> release_times;
    auto party = [&](Cycle arrive_at) -> Task<void> {
        co_await delay(eq, arrive_at);
        co_await bar.wait();
        release_times.push_back(eq.now());
    };
    std::vector<Join> joins;
    joins.push_back(spawn(party(5)));
    joins.push_back(spawn(party(17)));
    joins.push_back(spawn(party(11)));
    eq.run();
    for (auto &j : joins)
        j.get();
    ASSERT_EQ(release_times.size(), 3u);
    for (Cycle t : release_times)
        EXPECT_EQ(t, 17u);  // all release when the last party arrives
}

TEST(Barrier, IsReusableAcrossGenerations)
{
    EventQueue eq;
    Barrier bar(2);
    int rounds_a = 0, rounds_b = 0;
    auto party = [&](int *rounds, Cycle step) -> Task<void> {
        for (int r = 0; r < 5; ++r) {
            co_await delay(eq, step);
            co_await bar.wait();
            ++*rounds;
        }
    };
    Join a = spawn(party(&rounds_a, 3));
    Join b = spawn(party(&rounds_b, 9));
    eq.run();
    a.get();
    b.get();
    EXPECT_EQ(rounds_a, 5);
    EXPECT_EQ(rounds_b, 5);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.5, 2.0, 3.0}), std::cbrt(9.0), 1e-12);
    EXPECT_THROW(geomean({}), std::logic_error);
    EXPECT_THROW(geomean({1.0, -2.0}), std::logic_error);
}

TEST(Stats, HistogramPercentilesInterpolateWithinBucket)
{
    Histogram h(1.0, 16);
    for (int i = 0; i < 100; ++i)
        h.sample(i % 10);
    EXPECT_EQ(h.total(), 100u);
    // 10 samples per bucket: rank 5 lands halfway into bucket 0, rank 95
    // halfway into bucket 9 -- not at the buckets' lower edges.
    EXPECT_DOUBLE_EQ(h.percentile(0.05), 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 9.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 5.0);
    // p == 1.0 reports the largest observed sample.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.0);
}

TEST(Stats, AverageTracksMinAndMax)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    a.sample(5.0);
    a.sample(-2.0);
    a.sample(11.0);
    EXPECT_DOUBLE_EQ(a.min(), -2.0);
    EXPECT_DOUBLE_EQ(a.max(), 11.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, StatGroupDumpsHistogramPercentiles)
{
    StatGroup g("grp");
    Histogram &h = g.histogram("lat", 2.0, 32);
    for (int i = 0; i < 10; ++i)
        h.sample(2.0 * i);
    // Same name returns the same histogram; geometry args are ignored.
    EXPECT_EQ(&g.histogram("lat", 99.0, 1), &h);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.lat"), std::string::npos);
    EXPECT_NE(dump.find("p50:"), std::string::npos);
    EXPECT_NE(dump.find("p95:"), std::string::npos);
    EXPECT_NE(dump.find("p99:"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.histogram("lat").total(), 0u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true, any_diff_seed_diff = false;
    for (int i = 0; i < 1000; ++i) {
        auto va = a.next(), vb = b.next(), vc = c.next();
        all_equal &= (va == vb);
        any_diff_seed_diff |= (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(37), 37u);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng r(99);
    double mn = 1.0, mx = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mn = std::min(mn, u);
        mx = std::max(mx, u);
    }
    EXPECT_LT(mn, 0.01);
    EXPECT_GT(mx, 0.99);
}
