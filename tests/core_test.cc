/** @file DES core tests: time, clocks, event queue, components. */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/component.h"
#include "core/simulator.h"
#include "core/time.h"
#include "rng/random.h"
#include "types/credit.h"

namespace ss {
namespace {

TEST(Time, LexicographicOrdering)
{
    EXPECT_LT(Time(1, 5), Time(2, 0));  // lower tick always wins
    EXPECT_LT(Time(2, 0), Time(2, 1));  // epsilon breaks ties
    EXPECT_EQ(Time(3, 1), Time(3, 1));
    EXPECT_GT(Time::invalid(), Time(~0ULL - 1, 0));
}

TEST(Time, Arithmetic)
{
    Time t(10, 3);
    EXPECT_EQ(t.plusTicks(5), Time(15, 0));  // epsilon resets
    EXPECT_EQ(t.plusEps(), Time(10, 4));
    EXPECT_EQ(t.withEps(7), Time(10, 7));
    EXPECT_TRUE(t.valid());
    EXPECT_FALSE(Time::invalid().valid());
}

TEST(Clock, EdgesAndCycles)
{
    Clock clock(3);  // 3-tick cycle time (paper Figure 2b, Clock A)
    EXPECT_EQ(clock.nextEdge(0), 0u);
    EXPECT_EQ(clock.nextEdge(1), 3u);
    EXPECT_EQ(clock.nextEdge(3), 3u);
    EXPECT_EQ(clock.nextEdge(4), 6u);
    EXPECT_EQ(clock.cycle(0), 0u);
    EXPECT_EQ(clock.cycle(5), 1u);
    EXPECT_EQ(clock.cycle(6), 2u);
    EXPECT_TRUE(clock.onEdge(6));
    EXPECT_FALSE(clock.onEdge(7));
    EXPECT_EQ(clock.futureEdge(4, 2), 12u);
}

TEST(Clock, PhaseOffset)
{
    Clock clock(4, 1);
    EXPECT_EQ(clock.nextEdge(0), 1u);
    EXPECT_EQ(clock.nextEdge(1), 1u);
    EXPECT_EQ(clock.nextEdge(2), 5u);
    EXPECT_TRUE(clock.onEdge(9));
}

TEST(Clock, TwoFrequencies)
{
    // The paper's Figure 2b: Clock A period 3, Clock B period 2 — they
    // align every 6 ticks.
    Clock a(3);
    Clock b(2);
    EXPECT_EQ(a.nextEdge(5), 6u);
    EXPECT_EQ(b.nextEdge(5), 6u);
    EXPECT_EQ(a.cycle(6), b.cycle(6) * 2 / 3);
}

TEST(Clock, InvalidParametersAreFatal)
{
    EXPECT_THROW(Clock(0), FatalError);
    EXPECT_THROW(Clock(4, 4), FatalError);
}

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(Time(30), [&]() { order.push_back(3); });
    sim.schedule(Time(10), [&]() { order.push_back(1); });
    sim.schedule(Time(20), [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Simulator, EpsilonOrdersWithinTick)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(Time(5, 2), [&]() { order.push_back(2); });
    sim.schedule(Time(5, 0), [&]() { order.push_back(0); });
    sim.schedule(Time(5, 1), [&]() { order.push_back(1); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, FifoAmongEqualTimes)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(Time(1, 0), [&order, i]() { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(Simulator, EventsSpawnEvents)
{
    Simulator sim;
    int count = 0;
    std::function<void()> chain = [&]() {
        ++count;
        if (count < 100) {
            sim.schedule(sim.now().plusTicks(1), chain);
        }
    };
    sim.schedule(Time(0), chain);
    sim.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(sim.now().tick, 99u);
}

TEST(Simulator, EndsWhenQueueEmpty)
{
    Simulator sim;
    EXPECT_EQ(sim.run(), 0u);
    sim.schedule(Time(1), []() {});
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(sim.eventsPending(), 0u);
}

TEST(Simulator, TimeLimitStopsExecution)
{
    Simulator sim;
    int executed = 0;
    for (Tick t = 0; t < 100; ++t) {
        sim.schedule(Time(t * 10), [&]() { ++executed; });
    }
    sim.setTimeLimit(500);
    sim.run();
    EXPECT_TRUE(sim.timeLimitHit());
    EXPECT_EQ(executed, 51);  // events at ticks 0..500
}

TEST(Simulator, CallerOwnedEventReschedulable)
{
    Simulator sim;
    struct Counter : Event {
        int n = 0;
        Simulator* sim;
        void
        process() override
        {
            if (++n < 5) {
                sim->schedule(this, sim->now().plusTicks(2));
            }
        }
    } ev;
    ev.sim = &sim;
    sim.schedule(&ev, Time(0));
    EXPECT_TRUE(ev.pending());
    sim.run();
    EXPECT_EQ(ev.n, 5);
    EXPECT_FALSE(ev.pending());
    EXPECT_EQ(sim.now().tick, 8u);
}

TEST(Simulator, MemberEventDispatches)
{
    struct Obj {
        int hits = 0;
        void fire() { ++hits; }
    } obj;
    Simulator sim;
    MemberEvent<Obj> ev(&obj, &Obj::fire);
    sim.schedule(&ev, Time(3));
    sim.run();
    EXPECT_EQ(obj.hits, 1);
}

TEST(Simulator, CrossEpsilonOrderAcrossOverflowBoundary)
{
    Simulator sim;
    sim.setSchedulerHorizon(4);  // tick 100 starts beyond the window
    std::vector<int> order;
    // Scheduled first (lowest sequence numbers) but far beyond the
    // horizon: these land in the overflow heap.
    sim.schedule(Time(100, 1), [&]() { order.push_back(10); });
    sim.schedule(Time(100, 0), [&]() { order.push_back(0); });
    // By tick 98 the window has advanced enough that tick 100 is
    // bucketable, so these same-tick schedules go directly into the
    // bucket — with higher sequence numbers than the overflow entries
    // that migrate in afterwards.
    sim.schedule(Time(98), [&]() {
        sim.schedule(Time(100, 1), [&]() { order.push_back(11); });
        sim.schedule(Time(100, 0), [&]() { order.push_back(1); });
    });
    sim.run();
    // Exact (tick, epsilon, sequence) order despite the two populations
    // merging at migration time.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

TEST(Simulator, MatchesReferenceTotalOrderUnderStress)
{
    Simulator sim;
    sim.setSchedulerHorizon(8);  // force heavy overflow traffic
    Random rng(123);
    struct Ref {
        Tick tick;
        Epsilon eps;
        std::size_t seq;
    };
    std::vector<Ref> refs;
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < 2000; ++i) {
        Tick tick = 1 + rng.nextU64(300);
        Epsilon e = static_cast<Epsilon>(rng.nextU64(8));
        refs.push_back({tick, e, i});
        sim.schedule(Time(tick, e),
                     [&order, i]() { order.push_back(i); });
    }
    sim.run();
    std::vector<Ref> expected = refs;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Ref& a, const Ref& b) {
                         return a.tick != b.tick ? a.tick < b.tick
                                                 : a.eps < b.eps;
                     });
    ASSERT_EQ(order.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(order[i], expected[i].seq) << "at position " << i;
    }
}

TEST(Simulator, PooledWrappersAreRecycled)
{
    Simulator sim;
    int runs = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 100; ++i) {
            sim.schedule(Time(round * 10 + 1), [&]() { ++runs; });
        }
        sim.run();
    }
    EXPECT_EQ(runs, 300);
    // Rounds two and three reuse round one's wrapper events.
    EXPECT_LE(sim.pooledEventsAllocated() + sim.callbackEventsAllocated(),
              100u);
}

TEST(Simulator, NonTrivialClosuresFallBackToCallbackPool)
{
    Simulator sim;
    std::string tag = "payload with a non-trivially-copyable capture";
    std::string got;
    sim.schedule(Time(1), [&got, tag]() { got = tag; });
    sim.run();
    EXPECT_EQ(got, tag);
    EXPECT_EQ(sim.callbackEventsAllocated(), 1u);
    EXPECT_EQ(sim.pooledEventsAllocated(), 0u);
}

TEST(Simulator, CancelledEventDoesNotFireAndCanReschedule)
{
    Simulator sim;
    struct Obj {
        int hits = 0;
        void fire() { ++hits; }
    } obj;
    InlineEvent<Obj> ev(&obj, &Obj::fire);
    sim.schedule(&ev, Time(5));
    EXPECT_TRUE(ev.pending());
    EXPECT_TRUE(sim.cancel(&ev));
    EXPECT_FALSE(ev.pending());
    EXPECT_FALSE(sim.cancel(&ev));  // already cancelled
    // Reschedule into the same tick: the stale queue slot must neither
    // fire nor block the new occurrence.
    sim.schedule(&ev, Time(5));
    sim.schedule(Time(9), []() {});
    sim.run();
    EXPECT_EQ(obj.hits, 1);
    EXPECT_EQ(sim.eventsPending(), 0u);
}

TEST(Simulator, BackgroundEventsDoNotKeepRunAlive)
{
    Simulator sim;
    struct Sampler {
        Simulator* sim;
        int samples = 0;
        InlineEvent<Sampler> ev;
        explicit Sampler(Simulator* s)
            : sim(s), ev(this, &Sampler::sample)
        {
        }
        void
        sample()
        {
            ++samples;
            sim->schedule(&ev, sim->now().plusTicks(10),
                          /*background=*/true);
        }
    } sampler(&sim);
    sim.schedule(&sampler.ev, Time(0), /*background=*/true);
    int fg = 0;
    sim.schedule(Time(25), [&]() { ++fg; });
    sim.run();
    // Samples at ticks 0, 10, 20 interleave with foreground work, but
    // the tick-30 sample stays queued: background events never keep the
    // simulation alive on their own.
    EXPECT_EQ(fg, 1);
    EXPECT_EQ(sampler.samples, 3);
    EXPECT_EQ(sim.eventsPending(), 1u);
    // New foreground work revives the run and drains past it.
    sim.schedule(Time(35), [&]() { ++fg; });
    sim.run();
    EXPECT_EQ(sampler.samples, 4);
    EXPECT_EQ(fg, 2);
}

TEST(Simulator, SerialRunStopsMidTickWhenForegroundRunsOut)
{
    // The serial stop rule: run() ends as soon as no foreground event is
    // pending, even mid-tick, so a background event later in the same
    // tick stays queued with the rest. A loop that drains whole ticks
    // would run it.
    int fired = 0;
    CallbackEvent foreground([&]() { ++fired; });
    CallbackEvent same_tick([&]() { ++fired; });
    CallbackEvent later([&]() { ++fired; });
    Simulator sim;
    sim.schedule(&foreground, Time(10, 0));
    sim.schedule(&same_tick, Time(10, 3), /*background=*/true);
    sim.schedule(&later, Time(20), /*background=*/true);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsPending(), 2u);
    EXPECT_EQ(sim.now().tick, 10u);
    EXPECT_TRUE(same_tick.pending());
}

TEST(Simulator, ScheduleInlineDeliversPayloads)
{
    struct Obj {
        Simulator* sim = nullptr;
        std::vector<int> got;
        void
        take(int v)
        {
            got.push_back(v);
            if (v < 3) {
                sim->scheduleInline<&Obj::take>(
                    this, v + 1, sim->now().plusTicks(1));
            }
        }
    } obj;
    Simulator sim;
    obj.sim = &sim;
    sim.scheduleInline<&Obj::take>(&obj, 0, Time(1));
    sim.run();
    EXPECT_EQ(obj.got, (std::vector<int>{0, 1, 2, 3}));
    // The chain reuses one pooled wrapper (plus at most one in flight).
    EXPECT_LE(sim.pooledEventsAllocated(), 2u);
}

// What every slot event below records: who ran, its two payload words,
// and when.
struct SlotRecord {
    int id;
    std::uint64_t a;
    std::uint64_t b;
    Time time;

    bool
    operator==(const SlotRecord& o) const
    {
        return id == o.id && a == o.a && b == o.b && time == o.time;
    }
};

struct CreditSink {
    Simulator* sim;
    std::vector<SlotRecord>* log;
    int id;
    void
    take(Credit credit)
    {
        log->push_back({id, credit.vc, credit.count, sim->now()});
    }
};

TEST(Simulator, SlotEventsInterleaveWithCallerOwnedEventsInOrder)
{
    Simulator sim;
    std::vector<SlotRecord> log;
    CreditSink sink_b{&sim, &log, 2};
    CreditSink sink_d{&sim, &log, 5};
    // A closure with 24 bytes of trivially copyable captures fills the
    // queue slot's storage exactly.
    auto closure = [ctx = &sink_b](int id, std::uint64_t a,
                                   std::uint32_t b) {
        return [ctx, a, b, id]() {
            ctx->log->push_back({id, a, b, ctx->sim->now()});
        };
    };
    static_assert(sizeof(closure(0, 0, 0)) == 24);
    struct Owned {
        Simulator* sim;
        std::vector<SlotRecord>* log;
        void
        take(std::uint32_t id)
        {
            log->push_back({static_cast<int>(id), 0, 0, sim->now()});
        }
    } owned{&sim, &log};
    InlineEvent<Owned, std::uint32_t> e3(&owned, &Owned::take, 3);
    InlineEvent<Owned, std::uint32_t> e6(&owned, &Owned::take, 6);

    sim.schedule(Time(5, 1), closure(1, 10, 11));
    sim.scheduleInline<&CreditSink::take>(&sink_b, Credit{20, 21},
                                          Time(5, 0));
    sim.schedule(&e3, Time(5, 1));
    sim.schedule(Time(3, 2), closure(4, 40, 41));
    sim.scheduleInline<&CreditSink::take>(&sink_d, Credit{50, 51},
                                          Time(5, 1));
    sim.schedule(&e6, Time(5, 0));
    EXPECT_EQ(sim.run(), 6u);

    // (tick, epsilon, insertion) order across all three kinds, each with
    // its payload intact.
    EXPECT_EQ(log, (std::vector<SlotRecord>{{4, 40, 41, Time(3, 2)},
                                            {2, 20, 21, Time(5, 0)},
                                            {6, 0, 0, Time(5, 0)},
                                            {1, 10, 11, Time(5, 1)},
                                            {3, 0, 0, Time(5, 1)},
                                            {5, 50, 51, Time(5, 1)}}));
    EXPECT_EQ(sim.callbackEventsAllocated(), 0u);
    EXPECT_EQ(sim.pooledEventsAllocated(), 0u);
}

TEST(Simulator, InlineEntryRoundTripsThroughOverflowHeap)
{
    Simulator sim;
    sim.setSchedulerHorizon(8);
    std::vector<SlotRecord> log;
    CreditSink far{&sim, &log, 1};
    CreditSink near{&sim, &log, 2};
    // Beyond the 8-tick horizon at build time: both park in the overflow
    // heap with their payloads.
    sim.scheduleInline<&CreditSink::take>(&far, Credit{7, 9}, Time(100, 0));
    sim.scheduleInline<&CreditSink::take>(&far, Credit{8, 3}, Time(200, 3));
    // A chain of same-horizon hops walks the window up to tick 96 without
    // migrating the overflow, then schedules directly into tick 100's
    // bucket: the migrated entry must still run first (lower sequence).
    struct Walker {
        Simulator* sim;
        CreditSink* near;
        std::vector<SlotRecord>* log;
        void
        step(Tick tick)
        {
            if (tick < 96) {
                sim->scheduleInline<&Walker::step>(this, tick + 5,
                                                   Time(tick + 5, 0));
                return;
            }
            sim->scheduleInline<&CreditSink::take>(near, Credit{4, 5},
                                                   Time(100, 0));
            sim->schedule(Time(100, 0), [l = log, s = sim]() {
                l->push_back({3, 0, 0, s->now()});
            });
        }
    } walker{&sim, &near, &log};
    sim.scheduleInline<&Walker::step>(&walker, 1, Time(1, 0));
    sim.run();
    EXPECT_EQ(log, (std::vector<SlotRecord>{{1, 7, 9, Time(100, 0)},
                                            {2, 4, 5, Time(100, 0)},
                                            {3, 0, 0, Time(100, 0)},
                                            {1, 8, 3, Time(200, 3)}}));
    EXPECT_EQ(sim.eventsPending(), 0u);
}

TEST(Simulator, InlineEventCarriesPayload)
{
    struct Obj {
        std::vector<std::uint32_t> got;
        void take(std::uint32_t v) { got.push_back(v); }
    } obj;
    Simulator sim;
    InlineEvent<Obj, std::uint32_t> ev;
    ev.bind(&obj, &Obj::take, 7);
    sim.schedule(&ev, Time(1));
    sim.run();
    EXPECT_EQ(obj.got, (std::vector<std::uint32_t>{7}));
}

TEST(Simulator, HorizonValidation)
{
    Simulator sim;
    EXPECT_THROW(sim.setSchedulerHorizon(3), FatalError);  // not a pow2
    sim.setSchedulerHorizon(8);
    EXPECT_EQ(sim.schedulerHorizon(), 8u);
    sim.schedule(Time(1), []() {});
    EXPECT_THROW(sim.setSchedulerHorizon(16), FatalError);  // queue busy
    sim.run();
    sim.setSchedulerHorizon(16);
    EXPECT_EQ(sim.schedulerHorizon(), 16u);
}

TEST(Simulator, EpsilonBeyondSupportedRangeIsFatal)
{
    Simulator sim;
    EXPECT_THROW(sim.schedule(Time(1, 8), []() {}), FatalError);
}

TEST(Component, HierarchicalNames)
{
    Simulator sim;
    Component root(&sim, "network", nullptr);
    Component child(&sim, "router_3", &root);
    Component grandchild(&sim, "input_0", &child);
    EXPECT_EQ(grandchild.fullName(), "network.router_3.input_0");
    EXPECT_EQ(sim.findComponent("network.router_3"), &child);
    EXPECT_EQ(sim.numComponents(), 3u);
}

TEST(Component, DuplicateNamesAreFatal)
{
    Simulator sim;
    Component a(&sim, "x", nullptr);
    EXPECT_THROW(Component(&sim, "x", nullptr), FatalError);
}

TEST(Component, SeedsAreStableAndDistinct)
{
    Simulator sim_a(7);
    Simulator sim_b(7);
    Simulator sim_c(8);
    EXPECT_EQ(sim_a.componentSeed("net.r0"), sim_b.componentSeed("net.r0"));
    EXPECT_NE(sim_a.componentSeed("net.r0"), sim_a.componentSeed("net.r1"));
    EXPECT_NE(sim_a.componentSeed("net.r0"), sim_c.componentSeed("net.r0"));
}

TEST(Component, RandomStreamsAreIndependentOfCreationOrder)
{
    Simulator sim_a(3);
    Component a1(&sim_a, "alpha", nullptr);
    Component a2(&sim_a, "beta", nullptr);
    std::uint64_t v = a2.random().nextU64();

    Simulator sim_b(3);
    Component b2(&sim_b, "beta", nullptr);  // created first this time
    Component b1(&sim_b, "alpha", nullptr);
    EXPECT_EQ(b2.random().nextU64(), v);
}

}  // namespace
}  // namespace ss
