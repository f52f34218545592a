/** @file Congestion sensor tests: accounting styles and the delayed
 *  visibility at the heart of the paper's §VI-A case study. */
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "congestion/credit_sensor.h"
#include "core/simulator.h"
#include "json/settings.h"

namespace ss {
namespace {

std::unique_ptr<CreditSensor>
makeSensor(Simulator* sim, const std::string& settings_text,
           std::uint32_t ports = 2, std::uint32_t vcs = 2)
{
    static int counter = 0;
    json::Value settings = json::parse(settings_text);
    auto sensor = std::make_unique<CreditSensor>(
        sim, strf("sensor_", counter++), nullptr, ports, vcs, settings);
    for (std::uint32_t p = 0; p < ports; ++p) {
        for (std::uint32_t v = 0; v < vcs; ++v) {
            sensor->initCapacity(p, v, CreditPool::kOutputQueue, 16);
            sensor->initCapacity(p, v, CreditPool::kDownstream, 8);
        }
    }
    return sensor;
}

TEST(CreditSensor, ZeroLatencyIsImmediatelyVisible)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 0})");
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 0.0);
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +3);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 3.0);
    sensor->creditEvent(0, 0, CreditPool::kDownstream, -1);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 2.0);
}

TEST(CreditSensor, LatencyDelaysVisibilityNotActual)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 10})");
    CreditSensor* raw = sensor.get();
    sim.schedule(Time(100), [raw]() {
        raw->creditEvent(0, 0, CreditPool::kDownstream, +5);
    });
    // Visible value lags by exactly the propagation latency.
    sim.schedule(Time(105), [raw]() {
        EXPECT_DOUBLE_EQ(raw->status(0, 0), 0.0);
        EXPECT_DOUBLE_EQ(raw->actualStatus(0, 0), 5.0);
    });
    sim.schedule(Time(111), [raw]() {
        EXPECT_DOUBLE_EQ(raw->status(0, 0), 5.0);
    });
    sim.run();
}

TEST(CreditSensor, DelayedUpdatesInterleaveCorrectly)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 4})");
    CreditSensor* raw = sensor.get();
    for (Tick t = 0; t < 8; ++t) {
        sim.schedule(Time(t), [raw]() {
            raw->creditEvent(1, 1, CreditPool::kDownstream, +1);
        });
    }
    sim.schedule(Time(7, 7), [raw]() {
        // Events from ticks 0..3 are visible by tick 7 (epsilon after
        // the sensor updates at eps::kSensor).
        EXPECT_DOUBLE_EQ(raw->status(1, 1), 4.0);
        EXPECT_DOUBLE_EQ(raw->actualStatus(1, 1), 8.0);
    });
    sim.run();
    EXPECT_DOUBLE_EQ(raw->status(1, 1), 8.0);
}

TEST(CreditSensor, LatencyOneRingWrapsUnderUpdatesEveryTick)
{
    // Two ports change on every tick for 2,000 ticks, so pending batches
    // recycle ring slots hundreds of times; what routing sees at a tick
    // must be exactly the occupancy at the end of the previous tick.
    constexpr Tick kTicks = 2000;
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 1})");
    CreditSensor* raw = sensor.get();
    std::vector<std::array<double, 2>> history(kTicks);
    for (Tick t = 0; t < kTicks; ++t) {
        sim.schedule(Time(t, eps::kDelivery), [raw, t, &history]() {
            for (std::uint32_t port = 0; port < 2; ++port) {
                double level = raw->actualStatus(port, 0);
                bool up = ((t * (port + 3)) % 7 < 4 && level < 8) ||
                          level == 0;
                raw->creditEvent(port, 0, CreditPool::kDownstream,
                                 up ? +1 : -1);
                history[t][port] = raw->actualStatus(port, 0);
            }
        });
        if (t > 0) {
            sim.schedule(Time(t, eps::kPipeline), [raw, t, &history]() {
                EXPECT_DOUBLE_EQ(raw->status(0, 0), history[t - 1][0])
                    << "tick " << t;
                EXPECT_DOUBLE_EQ(raw->status(1, 0), history[t - 1][1])
                    << "tick " << t;
            });
        }
    }
    sim.run();
    // One apply event per tick that had updates, nothing more.
    EXPECT_EQ(sim.eventsExecuted(), kTicks + (kTicks - 1) + kTicks);
    EXPECT_DOUBLE_EQ(raw->status(0, 0), history[kTicks - 1][0]);
    EXPECT_DOUBLE_EQ(raw->status(1, 0), history[kTicks - 1][1]);
    EXPECT_LE(raw->pendingSlots(), 4u);
}

TEST(CreditSensor, MillionTickLatencyIsExactAndBounded)
{
    constexpr Tick kLatency = 1'000'000;
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 1000000})");
    CreditSensor* raw = sensor.get();
    const std::vector<std::pair<Tick, std::int32_t>> updates = {
        {10, +2}, {10, +1}, {20, +4}, {400'000, -3}, {1'500'000, +1}};
    for (const auto& [tick, delta] : updates) {
        sim.schedule(Time(tick), [raw, delta = delta]() {
            raw->creditEvent(0, 0, CreditPool::kDownstream, delta);
        });
    }
    // Visible value just before and at each apply tick.
    const std::vector<std::pair<Tick, double>> expected = {
        {kLatency + 9, 0.0},        {kLatency + 10, 3.0},
        {kLatency + 19, 3.0},       {kLatency + 20, 7.0},
        {kLatency + 399'999, 7.0},  {kLatency + 400'000, 4.0},
        {kLatency + 1'499'999, 4.0}, {kLatency + 1'500'000, 5.0}};
    for (const auto& [tick, value] : expected) {
        sim.schedule(Time(tick, eps::kPipeline),
                     [raw, tick = tick, value = value]() {
                         EXPECT_DOUBLE_EQ(raw->status(0, 0), value)
                             << "tick " << tick;
                     });
    }
    sim.run();
    EXPECT_DOUBLE_EQ(raw->status(0, 0), 5.0);
    // Four apply ticks: memory follows the batches, not the latency.
    EXPECT_LE(raw->pendingSlots(), 4u);
}

TEST(CreditSensor, UpdateAfterApplyOnApplyTickWaitsFullLatency)
{
    // An update at an epsilon after eps::kSensor on a tick whose batch
    // has just applied opens a new batch, visible exactly one latency
    // later and not before.
    static_assert(eps::kPipeline > eps::kSensor);
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"latency": 5})");
    CreditSensor* raw = sensor.get();
    sim.schedule(Time(10), [raw]() {
        raw->creditEvent(0, 0, CreditPool::kDownstream, +1);
    });
    sim.schedule(Time(15, eps::kPipeline), [raw]() {
        EXPECT_DOUBLE_EQ(raw->status(0, 0), 1.0);
        raw->creditEvent(0, 0, CreditPool::kDownstream, +2);
        EXPECT_DOUBLE_EQ(raw->status(0, 0), 1.0);
    });
    sim.schedule(Time(19, eps::kStats),
                 [raw]() { EXPECT_DOUBLE_EQ(raw->status(0, 0), 1.0); });
    sim.schedule(Time(20, eps::kDelivery),
                 [raw]() { EXPECT_DOUBLE_EQ(raw->status(0, 0), 1.0); });
    sim.schedule(Time(20, eps::kPipeline),
                 [raw]() { EXPECT_DOUBLE_EQ(raw->status(0, 0), 3.0); });
    sim.run();
    EXPECT_DOUBLE_EQ(raw->status(0, 0), 3.0);
}

TEST(CreditSensor, PoolSelectionOutput)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"pools": "output"})");
    sensor->creditEvent(0, 0, CreditPool::kOutputQueue, +4);
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +2);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 4.0);
}

TEST(CreditSensor, PoolSelectionDownstream)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"pools": "downstream"})");
    sensor->creditEvent(0, 0, CreditPool::kOutputQueue, +4);
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +2);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 2.0);
}

TEST(CreditSensor, PoolSelectionBothSums)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"pools": "both"})");
    sensor->creditEvent(0, 0, CreditPool::kOutputQueue, +4);
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +2);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 6.0);
}

TEST(CreditSensor, VcGranularityIsolatesVcs)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"granularity": "vc"})");
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +5);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(sensor->status(0, 1), 0.0);
}

TEST(CreditSensor, PortGranularityAggregatesVcs)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({"granularity": "port"})");
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +5);
    sensor->creditEvent(0, 1, CreditPool::kDownstream, +3);
    // Port-based accounting reports the same value for every VC of the
    // port (paper §VI-B).
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(sensor->status(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(sensor->status(1, 0), 0.0);
}

TEST(CreditSensor, NormalizedModeDividesByCapacity)
{
    Simulator sim;
    auto sensor = makeSensor(
        &sim, R"({"mode": "normalized", "pools": "downstream"})");
    sensor->creditEvent(0, 0, CreditPool::kDownstream, +4);
    EXPECT_DOUBLE_EQ(sensor->status(0, 0), 0.5);  // 4 of 8
}

TEST(CreditSensor, SixAccountingStylesOfFigure10)
{
    // The cross product the paper's §VI-B case study sweeps.
    Simulator sim;
    for (const char* granularity : {"vc", "port"}) {
        for (const char* pools : {"output", "downstream", "both"}) {
            auto sensor = makeSensor(
                &sim, strf(R"({"granularity": ")", granularity,
                           R"(", "pools": ")", pools, R"("})"));
            sensor->creditEvent(0, 0, CreditPool::kOutputQueue, +1);
            sensor->creditEvent(0, 1, CreditPool::kDownstream, +1);
            EXPECT_GE(sensor->status(0, 0) + sensor->status(0, 1), 1.0);
        }
    }
}

TEST(CreditSensor, LaggedValueConvergesForEveryStyleAndLatency)
{
    // Full sweep of the accounting cross product x propagation latency:
    // once in-flight updates drain, the lagged (visible) value must equal
    // the exact occupancy for every (port, vc) — latency delays
    // visibility, it never loses or distorts updates.
    //
    // Event pattern (all on port 0):
    //   tick 5:  output +4 on vc 0, downstream +2 on vc 1
    //   tick 20: downstream +1 on vc 0
    struct Expect {
        const char* pools;
        const char* granularity;
        double vc0;
        double vc1;
    };
    const Expect kExpected[] = {
        {"output", "vc", 4.0, 0.0},     {"output", "port", 4.0, 4.0},
        {"downstream", "vc", 1.0, 2.0}, {"downstream", "port", 3.0, 3.0},
        {"both", "vc", 5.0, 2.0},       {"both", "port", 7.0, 7.0},
    };
    for (const Expect& expect : kExpected) {
        for (Tick latency : {Tick{0}, Tick{3}, Tick{17}}) {
            Simulator sim;
            auto sensor = makeSensor(
                &sim, strf(R"({"granularity": ")", expect.granularity,
                           R"(", "pools": ")", expect.pools,
                           R"(", "latency": )", latency, "}"));
            CreditSensor* raw = sensor.get();
            sim.schedule(Time(5), [raw]() {
                raw->creditEvent(0, 0, CreditPool::kOutputQueue, +4);
                raw->creditEvent(0, 1, CreditPool::kDownstream, +2);
            });
            sim.schedule(Time(20), [raw]() {
                raw->creditEvent(0, 0, CreditPool::kDownstream, +1);
            });
            if (latency > 0) {
                // Mid-flight, the visible value lags the exact one.
                sim.schedule(Time(5, 7), [raw, &expect]() {
                    EXPECT_DOUBLE_EQ(raw->status(0, 0), 0.0)
                        << expect.pools << "/" << expect.granularity;
                });
            }
            sim.run();
            // Drained: lagged == exact == the expected occupancy.
            EXPECT_DOUBLE_EQ(raw->status(0, 0), expect.vc0)
                << expect.pools << "/" << expect.granularity
                << " latency " << latency;
            EXPECT_DOUBLE_EQ(raw->status(0, 1), expect.vc1)
                << expect.pools << "/" << expect.granularity
                << " latency " << latency;
            EXPECT_DOUBLE_EQ(raw->status(0, 0), raw->actualStatus(0, 0));
            EXPECT_DOUBLE_EQ(raw->status(0, 1), raw->actualStatus(0, 1));
            // Untouched port stays at zero everywhere.
            EXPECT_DOUBLE_EQ(raw->status(1, 0), 0.0);
        }
    }
}

TEST(CreditSensor, InvalidSettingsAreFatal)
{
    Simulator sim;
    EXPECT_THROW(makeSensor(&sim, R"({"granularity": "flit"})"),
                 FatalError);
    EXPECT_THROW(makeSensor(&sim, R"({"pools": "everything"})"),
                 FatalError);
    EXPECT_THROW(makeSensor(&sim, R"({"mode": "fancy"})"), FatalError);
}

using CongestionDeathTest = ::testing::Test;

TEST(CongestionDeathTest, NegativeOccupancyPanics)
{
    Simulator sim;
    auto sensor = makeSensor(&sim, R"({})");
    EXPECT_DEATH(sensor->creditEvent(0, 0, CreditPool::kDownstream, -1),
                 "negative");
}

}  // namespace
}  // namespace ss
