/** @file Partitioned parallel executer tests.
 *
 *  The headline guarantee of the parallel executer is that `--threads N`
 *  is byte-identical to `--threads 1` (same partitioning, same
 *  per-partition sequence counters, barrier-synchronous commits), so
 *  these tests compare full RunResult JSON — minus the two wall-clock
 *  engine fields — across thread counts on every topology family, plus
 *  the collective engine. A zero-latency channel leaves the executer no
 *  lookahead and must fail fast at build time.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "json/settings.h"
#include "sim/builder.h"
#include "topology/partitioner.h"
#include "types/credit.h"

#include "test_util.h"

namespace ss {
namespace {

const char* kTorusNet =
    R"({"topology": "torus", "widths": [4, 4], "concentration": 2,
        "num_vcs": 2, "clock_period": 1, "channel_latency": 2,
        "router": {"architecture": "input_queued",
                   "input_buffer_size": 8},
        "routing": {"algorithm": "torus_dimension_order"}})";

const char* kDragonflyNet =
    R"({"topology": "dragonfly", "group_size": 3, "global_channels": 2,
        "concentration": 2, "num_vcs": 4, "clock_period": 1,
        "channel_latency": 2, "global_latency": 6,
        "router": {"architecture": "input_queued",
                   "input_buffer_size": 12},
        "routing": {"algorithm": "dragonfly_minimal"}})";

const char* kFatTreeNet =
    R"({"topology": "folded_clos", "half_radix": 2, "levels": 3,
        "num_vcs": 2, "clock_period": 1, "channel_latency": 2,
        "router": {"architecture": "input_queued",
                   "input_buffer_size": 8},
        "routing": {"algorithm": "folded_clos_adaptive"}})";

/** Runs @p config with `simulator.threads` = @p threads and returns the
 *  full RunResult JSON with the wall-clock fields zeroed. */
std::string
resultFingerprint(const json::Value& config, std::uint64_t threads)
{
    json::Value cfg = config;
    json::applyOverrides(
        &cfg, {strf("simulator.threads=uint=", threads)});
    RunResult result = runSimulation(cfg);
    json::Value v = result.toJson();
    v.at("engine")["wall_seconds"] = 0.0;
    v.at("engine")["event_rate"] = 0.0;
    return v.toString(2);
}

void
expectThreadCountInvariant(const json::Value& config)
{
    std::string serial = resultFingerprint(config, 1);
    EXPECT_EQ(serial, resultFingerprint(config, 2));
    EXPECT_EQ(serial, resultFingerprint(config, 8));
}

TEST(ParallelExecuter, TorusByteIdenticalAcrossThreads)
{
    expectThreadCountInvariant(test::makeConfig(
        kTorusNet, test::blastWorkload(0.12, 4, 12), 7, 5'000'000));
}

TEST(ParallelExecuter, DragonflyByteIdenticalAcrossThreads)
{
    expectThreadCountInvariant(test::makeConfig(
        kDragonflyNet, test::blastWorkload(0.1, 4, 10), 11, 5'000'000));
}

TEST(ParallelExecuter, FatTreeByteIdenticalAcrossThreads)
{
    expectThreadCountInvariant(test::makeConfig(
        kFatTreeNet, test::blastWorkload(0.1, 4, 10), 13, 5'000'000));
}

TEST(ParallelExecuter, CollectiveByteIdenticalAcrossThreads)
{
    // Ring all-reduce (closed-loop DAG workload) on the torus: the
    // four-phase handshake and the collective's global counters all run
    // on the control partition.
    expectThreadCountInvariant(test::makeConfig(kTorusNet, R"({
        "applications": [{
            "type": "collective",
            "iterations": 2,
            "flit_bytes": 16,
            "max_packet_size": 16,
            "schedule": [{"op": "all_reduce", "algorithm": "ring",
                          "payload_bytes": 1024, "name": "grads"}]
        }]})"));
}

TEST(ParallelExecuter, ParallelRunMatchesLegacySerialStats)
{
    // The parallel executer restructures the queues (events_executed,
    // queue depth, and the shard-major sample merge order legitimately
    // differ from the legacy single-queue loop), but every
    // simulation-visible statistic must match: same messages, same
    // per-message timings, same throughput.
    json::Value config = test::makeConfig(
        kTorusNet, test::blastWorkload(0.12, 4, 12), 7, 5'000'000);
    RunResult legacy = runSimulation(config);

    json::Value cfg = config;
    json::applyOverrides(&cfg, {"simulator.threads=uint=2"});
    RunResult parallel = runSimulation(cfg);

    EXPECT_EQ(legacy.saturated, parallel.saturated);
    EXPECT_EQ(legacy.endTick, parallel.endTick);
    ASSERT_EQ(legacy.sampler.count(), parallel.sampler.count());
    auto sortKey = [](const MessageSample& s) {
        return std::make_tuple(s.createTick, s.source, s.destination,
                               s.injectTick, s.deliverTick, s.hops);
    };
    auto sorted = [&sortKey](const LatencySampler& sampler) {
        std::vector<MessageSample> v = sampler.samples();
        std::sort(v.begin(), v.end(),
                  [&sortKey](const MessageSample& a,
                             const MessageSample& b) {
                      return sortKey(a) < sortKey(b);
                  });
        return v;
    };
    std::vector<MessageSample> a = sorted(legacy.sampler);
    std::vector<MessageSample> b = sorted(parallel.sampler);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sortKey(a[i]), sortKey(b[i])) << "sample " << i;
    }
    EXPECT_DOUBLE_EQ(legacy.throughput(), parallel.throughput());
}

TEST(ParallelExecuter, ZeroLatencyChannelFailsFastNoLookahead)
{
    // Channels are the only cross-partition edges; a zero-latency
    // channel would leave the barrier-synchronous executer no lookahead,
    // so the network rejects it at build time with a clear diagnostic.
    json::Value config = test::makeConfig(
        R"({"topology": "torus", "widths": [4], "concentration": 1,
            "num_vcs": 2, "clock_period": 1, "channel_latency": 0,
            "router": {"architecture": "input_queued",
                       "input_buffer_size": 8},
            "routing": {"algorithm": "torus_dimension_order"}})",
        test::blastWorkload(0.1, 1, 5));
    json::applyOverrides(&config, {"simulator.threads=uint=2"});
    try {
        runSimulation(config);
        FAIL() << "zero-latency channel config must not build";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("no lookahead"),
                  std::string::npos)
            << "diagnostic should explain the lookahead requirement: "
            << e.what();
    }
}

TEST(ParallelExecuter, ExplicitPartitionCountIsThreadInvariant)
{
    // `simulator.partitions` is part of the effective configuration
    // (like the seed): it fixes the partition structure, and the thread
    // count must then never matter.
    json::Value config = test::makeConfig(
        kTorusNet, test::blastWorkload(0.12, 4, 12), 7, 5'000'000);
    json::applyOverrides(&config, {"simulator.partitions=uint=2"});
    std::string one = resultFingerprint(config, 1);
    EXPECT_EQ(one, resultFingerprint(config, 2));
    EXPECT_EQ(one, resultFingerprint(config, 8));
}

TEST(ParallelExecuter, PartitionsWithoutThreadsIsRejected)
{
    json::Value config = test::makeConfig(
        kTorusNet, test::blastWorkload(0.12, 4, 12), 7, 5'000'000);
    json::applyOverrides(&config, {"simulator.partitions=uint=2"});
    EXPECT_THROW(runSimulation(config), FatalError);
}

// ----- partitioner plan unit tests -----

// Notifications a worker partition sends the control partition and the
// channel hops between partitions ride in queue slots and mailbox
// entries, never in wrapper events: no wrapper is allocated at any sample
// window or thread count, and the queue depth stays bounded as four times
// as many messages are sampled.
TEST(ParallelExecuter, WrapperPoolsStayFlatAsSampleWindowGrows)
{
    for (std::uint64_t threads : {1u, 2u}) {
        for (unsigned samples : {50u, 200u}) {
            json::Value config = test::makeConfig(
                kTorusNet, test::blastWorkload(0.3, 2, samples));
            json::applyOverrides(
                &config, {strf("simulator.threads=uint=", threads),
                          "simulator.partitions=uint=4"});
            Simulation simulation(config);
            simulation.run();
            const Simulator& sim = *simulation.simulator();
            EXPECT_EQ(sim.numWorkerPartitions(), 4u);
            EXPECT_EQ(sim.pooledEventsAllocated(), 0u)
                << samples << " samples, threads " << threads;
            EXPECT_EQ(sim.callbackEventsAllocated(), 0u)
                << samples << " samples, threads " << threads;
            EXPECT_GT(sim.peakQueueDepth(), 0u);
            EXPECT_LE(sim.pooledEventsAllocated() +
                          sim.callbackEventsAllocated(),
                      sim.peakQueueDepth())
                << samples << " samples, threads " << threads;
        }
    }
}

// Inline entries a worker partition schedules elsewhere travel by value
// through its mailboxes: `outbox` to another worker partition at a later
// tick, `controlOutbox` to the control partition in the same tick. Each
// must arrive on its target partition with its payload intact.
TEST(ParallelExecuter, InlineEntriesCrossPartitionsWithPayloads)
{
    struct Arrival {
        std::uint32_t vc;
        std::uint32_t count;
        std::uint32_t shard;
        Tick tick;
        Epsilon epsilon;
    };
    struct Sink {
        Simulator* sim;
        std::vector<Arrival> got;
        void
        take(Credit credit)
        {
            got.push_back({credit.vc, credit.count, sim->currentShard(),
                           sim->now().tick, sim->now().epsilon});
        }
    };
    for (std::uint32_t threads : {1u, 2u}) {
        Simulator sim;
        sim.requestParallel(threads, 2);
        sim.setupPartitions(2);
        Sink worker{&sim, {}};
        Sink control{&sim, {}};
        struct {
            std::uint64_t payload = 0;
            std::uint32_t shard = 0;
        } closure;
        sim.scheduleFor(0, Time(1), [&sim, &worker, &control]() {
            sim.scheduleInlineFor<&Sink::take>(1, &worker, Credit{7, 9},
                                               Time(3, eps::kDelivery));
            sim.scheduleInlineFor<&Sink::take>(Simulator::kAutoPartition,
                                               &control, Credit{5, 6},
                                               Time(1, eps::kControl));
        });
        sim.scheduleFor(0, Time(2), [&sim, &closure]() {
            // 24 bytes of captures, sent to partition 1 by value.
            const std::uint64_t payload = 0x0123456789abcdefULL;
            auto deliver = [out = &closure, payload, s = &sim]() {
                out->payload = payload;
                out->shard = s->currentShard();
            };
            static_assert(sizeof(deliver) == 24);
            sim.scheduleFor(1, Time(4), deliver);
        });
        sim.run();
        ASSERT_EQ(worker.got.size(), 1u) << "threads " << threads;
        EXPECT_EQ(worker.got[0].vc, 7u);
        EXPECT_EQ(worker.got[0].count, 9u);
        EXPECT_EQ(worker.got[0].shard, 1u);
        EXPECT_EQ(worker.got[0].tick, 3u);
        EXPECT_EQ(worker.got[0].epsilon, eps::kDelivery);
        ASSERT_EQ(control.got.size(), 1u) << "threads " << threads;
        EXPECT_EQ(control.got[0].vc, 5u);
        EXPECT_EQ(control.got[0].count, 6u);
        EXPECT_EQ(control.got[0].shard, sim.controlShard());
        EXPECT_EQ(control.got[0].tick, 1u);
        EXPECT_EQ(control.got[0].epsilon, eps::kControl);
        EXPECT_EQ(closure.payload, 0x0123456789abcdefULL);
        EXPECT_EQ(closure.shard, 1u);
        EXPECT_EQ(sim.eventsExecuted(), 5u);
        EXPECT_EQ(sim.callbackEventsAllocated(), 0u);
    }
}

TEST(Partitioner, TorusSlabsAreContiguousAndBalanced)
{
    json::Value settings = json::parse(
        R"({"topology": "torus", "widths": [4, 4], "concentration": 2})");
    PartitionPlan plan = buildPartitionPlan("torus", settings, 4);
    ASSERT_EQ(plan.count, 4u);
    ASSERT_TRUE(static_cast<bool>(plan.assign));
    // 16 routers, last-dimension slabs: routers r and r+4 share a slab
    // boundary pattern — each consecutive run of 4 ids is one partition.
    for (std::uint32_t r = 0; r < 16; ++r) {
        EXPECT_EQ(plan.assign(r), r / 4) << "router " << r;
    }
}

TEST(Partitioner, DragonflyGroupsStayTogether)
{
    json::Value settings = json::parse(
        R"({"topology": "dragonfly", "group_size": 4,
            "global_channels": 2, "concentration": 2})");
    // 9 groups of 4 routers; every router of a group must land in the
    // same partition (local channels never cross partitions).
    PartitionPlan plan = buildPartitionPlan("dragonfly", settings, 3);
    ASSERT_GE(plan.count, 1u);
    ASSERT_TRUE(static_cast<bool>(plan.assign));
    for (std::uint32_t g = 0; g < 9; ++g) {
        std::uint32_t p = plan.assign(g * 4);
        for (std::uint32_t r = 1; r < 4; ++r) {
            EXPECT_EQ(plan.assign(g * 4 + r), p) << "group " << g;
        }
        EXPECT_LT(p, plan.count);
    }
}

TEST(Partitioner, FallbackCoversUnknownTopology)
{
    json::Value settings =
        json::parse(R"({"topology": "parking_lot", "routers": 10})");
    PartitionPlan plan = buildPartitionPlan("parking_lot", settings, 3);
    ASSERT_GE(plan.count, 1u);
    ASSERT_TRUE(static_cast<bool>(plan.assign));
    std::set<std::uint32_t> used;
    for (std::uint32_t r = 0; r < 12; ++r) {
        std::uint32_t p = plan.assign(r);
        EXPECT_LT(p, plan.count);
        used.insert(p);
    }
    EXPECT_EQ(used.size(), plan.count);
}

TEST(Partitioner, RequestedCountCapsAutomaticChoice)
{
    json::Value settings = json::parse(
        R"({"topology": "torus", "widths": [8, 8], "concentration": 1})");
    PartitionPlan one = buildPartitionPlan("torus", settings, 1);
    EXPECT_EQ(one.count, 1u);
    PartitionPlan all = buildPartitionPlan("torus", settings, 0);
    EXPECT_GE(all.count, 2u);
    EXPECT_LE(all.count, 8u);
}

}  // namespace
}  // namespace ss
