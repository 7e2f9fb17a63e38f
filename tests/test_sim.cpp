/**
 * @file
 * Tests for the discrete-event core: event ordering, coroutine
 * processes, delay awaitables, bandwidth resources (queueing,
 * utilisation accounting) and the bounded hand-off queue.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/queue.hpp"
#include "sim/resource.hpp"

namespace {

using namespace pgcn::sim;

TEST(Engine, EventsFireInTimeOrder)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(30.0, [&] { order.push_back(3); });
    engine.schedule(10.0, [&] { order.push_back(1); });
    engine.schedule(20.0, [&] { order.push_back(2); });
    const SimTime end = engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(end, 30.0);
}

TEST(Engine, EqualTimestampsFifo)
{
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        engine.schedule(7.0, [&order, i] { order.push_back(i); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedScheduling)
{
    Engine engine;
    SimTime inner_fired = -1;
    engine.schedule(5.0, [&] {
        engine.schedule(10.0, [&] { inner_fired = engine.now(); });
    });
    engine.run();
    EXPECT_DOUBLE_EQ(inner_fired, 15.0);
}

TEST(Engine, EventCountTracked)
{
    Engine engine;
    for (int i = 0; i < 10; ++i)
        engine.schedule(1.0 * i, [] {});
    engine.run();
    EXPECT_EQ(engine.eventsProcessed(), 10u);
}

Process
delayTwice(Engine &engine, std::vector<SimTime> &marks)
{
    co_await engine.delay(10.0);
    marks.push_back(engine.now());
    co_await engine.delay(5.0);
    marks.push_back(engine.now());
}

TEST(Process, DelaysAccumulate)
{
    Engine engine;
    std::vector<SimTime> marks;
    delayTwice(engine, marks);
    engine.run();
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_DOUBLE_EQ(marks[0], 10.0);
    EXPECT_DOUBLE_EQ(marks[1], 15.0);
}

TEST(Process, ZeroDelayDoesNotSuspend)
{
    Engine engine;
    std::vector<SimTime> marks;
    [](Engine &eng, std::vector<SimTime> &out) -> Process {
        co_await eng.delay(0.0);
        out.push_back(eng.now());
    }(engine, marks);
    // Body ran to completion synchronously (no events needed).
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_DOUBLE_EQ(marks[0], 0.0);
}

TEST(Resource, BackToBackRequestsQueue)
{
    Engine engine;
    BandwidthResource res(engine, 2.0); // 2 units/ns
    EXPECT_DOUBLE_EQ(res.reserve(10.0), 5.0);
    EXPECT_DOUBLE_EQ(res.reserve(10.0), 10.0); // queued behind first
    EXPECT_DOUBLE_EQ(res.busyTime(), 10.0);
    EXPECT_DOUBLE_EQ(res.totalUnits(), 20.0);
    EXPECT_EQ(res.requests(), 2u);
}

TEST(Resource, IdleGapThenRequest)
{
    Engine engine;
    BandwidthResource res(engine, 1.0);
    engine.schedule(100.0, [&] {
        EXPECT_DOUBLE_EQ(res.reserve(5.0), 105.0);
    });
    engine.run();
    EXPECT_DOUBLE_EQ(res.utilization(105.0), 5.0 / 105.0);
}

TEST(Resource, EarliestStartHonoured)
{
    Engine engine;
    BandwidthResource res(engine, 1.0);
    EXPECT_DOUBLE_EQ(res.reserve(5.0, 50.0), 55.0);
    // A later request starting "now" still queues behind it.
    EXPECT_DOUBLE_EQ(res.reserve(5.0), 60.0);
}

Process
transferProc(Engine &engine, BandwidthResource &res, double amount,
             SimTime &done)
{
    co_await res.transfer(amount);
    done = engine.now();
}

TEST(Resource, TransferAwaitsCompletion)
{
    Engine engine;
    BandwidthResource res(engine, 4.0);
    SimTime a = -1, b = -1;
    transferProc(engine, res, 40.0, a); // 10 ns
    transferProc(engine, res, 20.0, b); // +5 ns queued
    engine.run();
    EXPECT_DOUBLE_EQ(a, 10.0);
    EXPECT_DOUBLE_EQ(b, 15.0);
}

Process
producer(Engine &engine, BoundedQueue<int> &q, int count, SimTime gap)
{
    for (int i = 0; i < count; ++i) {
        co_await q.push(i);
        if (gap > 0)
            co_await engine.delay(gap);
    }
}

Process
consumer(Engine &engine, BoundedQueue<int> &q, int count, SimTime gap,
         std::vector<int> &out)
{
    for (int i = 0; i < count; ++i) {
        int v = co_await q.pop();
        out.push_back(v);
        if (gap > 0)
            co_await engine.delay(gap);
    }
}

TEST(Queue, FifoOrderPreserved)
{
    Engine engine;
    BoundedQueue<int> q(engine, 4);
    std::vector<int> out;
    producer(engine, q, 20, 1.0);
    consumer(engine, q, 20, 0.5, out);
    engine.run();
    ASSERT_EQ(out.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(Queue, FastProducerBlocksOnCapacity)
{
    Engine engine;
    BoundedQueue<int> q(engine, 2);
    std::vector<int> out;
    // Producer pushes with no delay; consumer drains slowly. The
    // bounded queue must throttle the producer, not grow unbounded.
    producer(engine, q, 10, 0.0);
    consumer(engine, q, 10, 10.0, out);
    engine.run();
    ASSERT_EQ(out.size(), 10u);
    EXPECT_LE(q.highWater(), 2u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(Queue, ConsumerWaitsForProducer)
{
    Engine engine;
    BoundedQueue<int> q(engine, 4);
    std::vector<int> out;
    SimTime consumed_at = -1;
    [](Engine &eng, BoundedQueue<int> &queue, std::vector<int> &sink,
       SimTime &at) -> Process {
        sink.push_back(co_await queue.pop());
        at = eng.now();
    }(engine, q, out, consumed_at);
    [](Engine &eng, BoundedQueue<int> &queue) -> Process {
        co_await eng.delay(42.0);
        co_await queue.push(99);
    }(engine, q);
    engine.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 99);
    EXPECT_DOUBLE_EQ(consumed_at, 42.0);
}

TEST(Queue, ManyProducersOneConsumer)
{
    Engine engine;
    BoundedQueue<int> q(engine, 3);
    std::vector<int> out;
    for (int p = 0; p < 8; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            co_await eng.delay(static_cast<SimTime>(id));
            co_await queue.push(id);
        }(engine, q, p);
    }
    consumer(engine, q, 8, 2.0, out);
    engine.run();
    EXPECT_EQ(out.size(), 8u);
    // Every producer's value arrives exactly once.
    std::vector<int> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sorted[i], i);
}

// ------------------------------------- zero-delay fast path & arenas

TEST(NowQueue, ZeroDelayFifoAfterSameTimestampFarEvents)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(5.0, [&] {
        order.push_back(0);
        // Zero-delay events land in the now queue...
        engine.schedule(0.0, [&] { order.push_back(2); });
        engine.schedule(0.0, [&] { order.push_back(3); });
        // ...while a coroutine awaiting delay(0) runs synchronously,
        // before anything queued above.
        [](Engine &eng, std::vector<int> &out) -> Process {
            co_await eng.delay(0.0);
            out.push_back(1);
        }(engine, order);
    });
    // Scheduled before run(): an earlier sequence number at the same
    // timestamp, so this far event must fire before the zero-delay
    // events created during dispatch at t=5.
    engine.schedule(5.0, [&] { order.push_back(4); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(NowQueue, RearmingZeroDelayChainsInterleaveBreadthFirst)
{
    Engine engine;
    std::vector<int> order;
    // Three chains of zero-delay events, each step re-arming the next
    // through the now queue. FIFO dispatch means the chains interleave
    // breadth-first in schedule order, never depth-first.
    std::function<void(int, int)> step = [&](int chain, int k) {
        order.push_back(chain * 10 + k);
        if (k < 2)
            engine.schedule(0.0, [&step, chain, k] { step(chain, k + 1); });
    };
    for (int c = 0; c < 3; ++c)
        engine.schedule(0.0, [&step, c] { step(c, 0); });
    engine.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
    EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Queue, BlockedProducersWakeInBlockOrder)
{
    Engine engine;
    BoundedQueue<int> q(engine, 1);
    std::vector<int> out;
    // Three producers, two pushes each, all blocking at t=0 on the
    // one-slot queue. Each pop must admit exactly the longest-blocked
    // producer's value.
    for (int p = 0; p < 3; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            (void)eng;
            co_await queue.push(id * 10);
            co_await queue.push(id * 10 + 1);
        }(engine, q, p);
    }
    consumer(engine, q, 6, 1.0, out);
    engine.run();
    // P0 buffers 0 and blocks on 1; P1 and P2 block behind it. Pops
    // then admit values in block order: 1, then P1's 10, then P2's 20
    // (P1 re-blocks with 11 before P2 re-blocks with 21).
    EXPECT_EQ(out, (std::vector<int>{0, 1, 10, 20, 11, 21}));
}

TEST(Engine, ReservedArenasNeverGrowOnResumePath)
{
    // With pre-sized arenas, a pure coroutine workload performs no
    // per-event allocation: the growth counter stays at zero across
    // hundreds of thousands of dispatches. More agents than the far
    // calendar's initial 1,024 buckets, so reserveEvents() must size
    // the bucket array too.
    Engine engine;
    constexpr int kAgents = 4096;
    engine.reserveEvents(kAgents, kAgents);
    for (int a = 0; a < kAgents; ++a) {
        [](Engine &eng, int id) -> Process {
            for (int i = 0; i < 200; ++i)
                co_await eng.delay(1.0 + 0.25 * (id % 4));
        }(engine, a);
    }
    engine.run();
    EXPECT_EQ(engine.arenaGrowths(), 0u);
    EXPECT_EQ(engine.coroutineEvents(), 4096u * 200u);

    // Sanity: the counter does count — the same workload without
    // reserveEvents() must grow the arenas at least once.
    Engine cold;
    for (int a = 0; a < kAgents; ++a) {
        [](Engine &eng, int id) -> Process {
            for (int i = 0; i < 200; ++i)
                co_await eng.delay(1.0 + 0.25 * (id % 4));
        }(cold, a);
    }
    cold.run();
    EXPECT_GT(cold.arenaGrowths(), 0u);
}

TEST(Engine, DestructorDestroysEveryParkedFrameOnce)
{
    // A run stopped at a horizon leaves frames in far-calendar slab
    // nodes and in the loaded bottom, next to slab nodes already
    // freed. ~Engine must destroy every parked frame exactly once:
    // free nodes carry payload 0 and are skipped.
    struct Guard
    {
        int *alive;
        ~Guard() { --*alive; }
    };
    constexpr int kAgents = 4096;
    int alive = 0;
    {
        Engine engine;
        for (int a = 0; a < kAgents; ++a) {
            [](Engine &eng, int id, int *live) -> Process {
                ++*live;
                const Guard guard{live};
                for (;;)
                    co_await eng.delay(1.0 + 0.25 * (id % 7));
            }(engine, a, &alive);
        }
        engine.runUntil(500.0);
        EXPECT_GT(engine.eventsProcessed(), uint64_t{kAgents});
        EXPECT_EQ(engine.queueDepth(), size_t{kAgents});
        EXPECT_EQ(alive, kAgents);
    }
    EXPECT_EQ(alive, 0);
}

} // namespace

// ------------------------------------------------ stress & property

namespace {

using namespace pgcn::sim;

/**
 * A hold-model workload with its dispatch order recomputed by a
 * std::priority_queue oracle. @p depth events are scheduled up front;
 * each dispatch schedules one successor (until @p depth more were
 * scheduled) and, one time in eight, an extra zero-delay event.
 * Delays are drawn from a coarse grid — 0 included — so equal
 * timestamps are dense. Every choice is a function of the event id
 * alone, so the oracle replays the identical schedule and the engine
 * must dispatch it in exactly the oracle's (when, seq) order.
 */
void
expectOracleOrder(uint64_t depth)
{
    const uint64_t total = 2 * depth;
    const auto draw = [](uint64_t id, uint64_t salt) {
        uint64_t state = id * 4 + salt;
        return pgcn::splitMix64(state);
    };
    // Initial events land on a wide grid; successors on a narrow one,
    // so the pending set spans a shallow window plus a long tail.
    const auto delayOf = [&](uint64_t id) {
        const uint64_t r = draw(id, 0);
        return id < depth ? static_cast<double>(r % 4096) * 0.5
                          : static_cast<double>(r % 16) * 0.25;
    };
    const auto extraZero = [&](uint64_t id) { return draw(id, 1) % 8 == 0; };

    // Oracle: (when, seq) min-heap; seq is the schedule order, which
    // is also the event id.
    using Item = std::pair<SimTime, uint64_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    std::vector<uint64_t> expected;
    expected.reserve(total);
    uint64_t next_id = 0;
    const auto oracleSchedule = [&](SimTime now, SimTime delay) {
        pq.emplace(now + delay, next_id++);
    };
    for (uint64_t i = 0; i < depth; ++i)
        oracleSchedule(0.0, delayOf(next_id));
    while (!pq.empty()) {
        const auto [now, id] = pq.top();
        pq.pop();
        expected.push_back(id);
        if (next_id < total)
            oracleSchedule(now, delayOf(next_id));
        if (next_id < total && extraZero(id))
            oracleSchedule(now, 0.0);
    }

    Engine engine;
    std::vector<uint64_t> order;
    order.reserve(total);
    uint64_t scheduled = 0;
    std::function<void(uint64_t)> fire;
    const auto engineSchedule = [&](SimTime delay) {
        const uint64_t id = scheduled++;
        engine.schedule(delay, [&fire, id] { fire(id); });
    };
    // Nested scheduling: every successor is scheduled from inside the
    // dispatching callback, exactly as the oracle replays it.
    fire = [&](uint64_t id) {
        order.push_back(id);
        if (scheduled < total)
            engineSchedule(delayOf(scheduled));
        if (scheduled < total && extraZero(id))
            engineSchedule(0.0);
    };
    for (uint64_t i = 0; i < depth; ++i)
        engineSchedule(delayOf(scheduled));
    engine.run();
    EXPECT_GE(engine.peakQueueDepth(), depth);
    ASSERT_EQ(order.size(), expected.size());
    EXPECT_TRUE(order == expected) << "dispatch order diverges from the "
                                      "(when, seq) oracle";
}

TEST(EngineProperty, RandomScheduleRunsInOrder)
{
    for (const uint64_t depth :
         {uint64_t{1}, uint64_t{1} << 12, uint64_t{1} << 16,
          uint64_t{1} << 20}) {
        SCOPED_TRACE("pending depth " + std::to_string(depth));
        expectOracleOrder(depth);
    }
}

/**
 * The sorted-bottom insert path against the same kind of oracle. The
 * engine is a one-domain DomainSet, and half the events are keyed
 * posts (DomainSet::postKeyed) under a random entity, so a post often
 * carries a lower sequence number than keyed events already pending.
 * Keyed successors land 0 to 0.75 ns ahead, mostly inside the bucket
 * being dispatched; ordinary successors use the schedule() paths.
 * The first @p initial events come in clusters of @p cluster equal
 * timestamps, and events below id @p long_ids draw 16x longer
 * delays. The oracle orders (when, seq) with the carried key as a
 * keyed event's seq and the engine's schedule count as an ordinary
 * one's.
 */
void
expectKeyedOracleOrder(uint64_t initial, uint64_t cluster,
                       uint64_t long_ids = 0)
{
    const uint64_t total = 4 * initial;
    const auto draw = [](uint64_t id, uint64_t salt) {
        uint64_t state = id * 4 + salt;
        return pgcn::splitMix64(state);
    };
    const auto keyed = [&](uint64_t id) { return draw(id, 0) % 2 == 0; };
    const auto delayOf = [&](uint64_t id) {
        const uint64_t r = draw(id, 1);
        const double scale = id < long_ids ? 16.0 : 1.0;
        return scale * (keyed(id) ? static_cast<double>(r % 4) * 0.25
                                  : static_cast<double>(r % 16) * 0.25);
    };
    const auto keyOf = [&](uint64_t id) {
        return makeKeyedSeq(kSeqBandRequest,
                            static_cast<unsigned>(draw(id, 2) % 4096), id);
    };
    const auto extra = [&](uint64_t id) { return draw(id, 3) % 4 == 0; };
    const auto startOf = [&](uint64_t id) {
        return static_cast<double>(id / cluster);
    };

    // Oracle: (when, seq, id) min-heap.
    using Item = std::tuple<SimTime, uint64_t, uint64_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    std::vector<uint64_t> expected;
    expected.reserve(total);
    uint64_t next_id = 0;
    uint64_t local_seq = 0;
    const auto oracleSchedule = [&](SimTime when) {
        const uint64_t id = next_id++;
        pq.emplace(when, keyed(id) ? keyOf(id) : local_seq++, id);
    };
    for (uint64_t i = 0; i < initial; ++i)
        oracleSchedule(startOf(i));
    while (!pq.empty()) {
        const auto [now, seq, id] = pq.top();
        pq.pop();
        expected.push_back(id);
        if (next_id < total)
            oracleSchedule(now + delayOf(next_id));
        if (next_id < total && extra(id))
            oracleSchedule(now + delayOf(next_id));
    }

    DomainSet set(1u);
    Engine &engine = set.engine(0);
    std::vector<uint64_t> order;
    order.reserve(total);
    uint64_t scheduled = 0;
    std::function<void(uint64_t)> fire;
    const auto post = [&](SimTime delay) {
        const uint64_t id = scheduled++;
        const Callback cb = [&fire, id] { fire(id); };
        if (keyed(id))
            set.postKeyed(0, 0, engine.now() + delay, keyOf(id), cb);
        else
            engine.schedule(delay, cb);
    };
    fire = [&](uint64_t id) {
        order.push_back(id);
        if (scheduled < total)
            post(delayOf(scheduled));
        if (scheduled < total && extra(id))
            post(delayOf(scheduled));
    };
    for (uint64_t i = 0; i < initial; ++i)
        post(startOf(i));
    set.run();
    ASSERT_EQ(order.size(), expected.size());
    EXPECT_TRUE(order == expected) << "dispatch order diverges from the "
                                      "(when, seq) oracle";
}

TEST(EngineProperty, KeyedPostsIntoTheLoadedBucketRunInOrder)
{
    for (const uint64_t initial : {uint64_t{16}, uint64_t{1} << 12}) {
        SCOPED_TRACE("initial events " + std::to_string(initial));
        expectKeyedOracleOrder(initial, 1);
    }
}

// 2^15 initial events: the calendar doubles from its initial 1,024
// buckets while the events are filed, and again during the run while
// keyed posts land in the loaded bucket, so each relink meets a
// loaded bottom and a live lookahead.
TEST(EngineProperty, BucketDoublingUnderKeyedPostsRunsInOrder)
{
    expectKeyedOracleOrder(uint64_t{1} << 15, 1);
}

// A long-delay phase, then short delays: the mean dispatch gap moves
// under the calendar, and its retunes relink in mid-bucket, with
// hundreds of events in the loaded bottom and the lookahead live.
TEST(EngineProperty, MidBucketRetuneAfterLongDelaysRunsInOrder)
{
    for (const uint64_t long_ids : {uint64_t{2} << 12, uint64_t{3} << 12}) {
        SCOPED_TRACE("long-delay ids " + std::to_string(long_ids));
        expectKeyedOracleOrder(uint64_t{1} << 12, 1, long_ids);
    }
}

// Clusters of equal timestamps longer than the engine's oversized-load
// threshold (32 events) load into one long bottom, and keyed posts
// land inside them.
TEST(EngineProperty, OversizedEqualTimestampClustersRunInOrder)
{
    for (const uint64_t cluster : {uint64_t{33}, uint64_t{100},
                                   uint64_t{1000}}) {
        SCOPED_TRACE("cluster " + std::to_string(cluster));
        expectKeyedOracleOrder(uint64_t{1} << 12, cluster);
    }
}

TEST(ResourceProperty, BusyTimeNeverExceedsMakespan)
{
    Engine engine;
    BandwidthResource res(engine, 3.0);
    uint64_t state = 5;
    for (int i = 0; i < 200; ++i) {
        const double delay =
            static_cast<double>(pgcn::splitMix64(state) % 1000);
        const double amount =
            static_cast<double>(pgcn::splitMix64(state) % 500 + 1);
        engine.schedule(delay, [&res, amount] { res.reserve(amount); });
    }
    const SimTime end = engine.run();
    EXPECT_LE(res.busyTime(), std::max(end, res.nextFree()) + 1e-9);
    EXPECT_EQ(res.requests(), 200u);
}

TEST(QueueProperty, InterleavedProducersConsumersConserveItems)
{
    Engine engine;
    BoundedQueue<int> q(engine, 5);
    std::vector<int> seen;
    constexpr int kItems = 300;
    // Three producers with different pacing, one consumer.
    for (int p = 0; p < 3; ++p) {
        [](Engine &eng, BoundedQueue<int> &queue, int id) -> Process {
            for (int i = 0; i < kItems / 3; ++i) {
                co_await queue.push(id * 1000 + i);
                co_await eng.delay(static_cast<SimTime>(1 + id));
            }
        }(engine, q, p);
    }
    [](Engine &eng, BoundedQueue<int> &queue,
       std::vector<int> &sink) -> Process {
        for (int i = 0; i < kItems; ++i) {
            sink.push_back(co_await queue.pop());
            co_await eng.delay(0.5);
        }
    }(engine, q, seen);
    engine.run();
    ASSERT_EQ(seen.size(), static_cast<size_t>(kItems));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end())
        << "duplicate delivery";
    EXPECT_LE(q.highWater(), 5u);
}

TEST(QueueProperty, PerProducerOrderPreserved)
{
    Engine engine;
    BoundedQueue<int> q(engine, 2);
    std::vector<int> seen;
    [](Engine &, BoundedQueue<int> &queue) -> Process {
        for (int i = 0; i < 50; ++i)
            co_await queue.push(i);
    }(engine, q);
    [](Engine &eng, BoundedQueue<int> &queue,
       std::vector<int> &sink) -> Process {
        for (int i = 0; i < 50; ++i) {
            sink.push_back(co_await queue.pop());
            co_await eng.delay(1.0);
        }
    }(engine, q, seen);
    engine.run();
    ASSERT_EQ(seen.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(seen[i], i);
}

} // namespace
