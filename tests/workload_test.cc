/** @file Workload FSM and application tests (paper §IV-A, Figure 4). */
#include <gtest/gtest.h>

#include "json/settings.h"
#include "sim/builder.h"
#include "stats/transaction_log.h"
#include "test_util.h"
#include "tools/log_parser.h"
#include "workload/terminal.h"

namespace ss {
namespace {

const char* kSmallTorus =
    R"({"topology": "torus", "widths": [4], "concentration": 1,
        "num_vcs": 2, "clock_period": 1, "channel_latency": 3,
        "router": {"architecture": "input_queued",
                   "input_buffer_size": 8},
        "routing": {"algorithm": "torus_dimension_order"}})";

TEST(Workload, BlastQuotaSamplesExactCount)
{
    json::Value config =
        test::makeConfig(kSmallTorus, test::blastWorkload(0.2, 1, 25));
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    // num_samples per terminal times 4 terminals.
    EXPECT_EQ(result.sampler.count(), 100u);
}

TEST(Workload, SampleDurationMode)
{
    json::Value config = test::makeConfig(kSmallTorus, R"({
        "applications": [{
            "type": "blast", "injection_rate": 0.25,
            "message_size": 1, "sample_duration": 3000,
            "warmup_duration": 500,
            "traffic": {"type": "uniform_random"}}]})");
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    // ~0.25 flits/cycle * 4 terminals * 3000 cycles = ~3000 messages.
    EXPECT_GT(result.sampler.count(), 2000u);
    EXPECT_LT(result.sampler.count(), 4200u);
    // The measurement window is the generating phase.
    EXPECT_EQ(result.rateMonitor.windowTicks(), 3000u);
}

TEST(Workload, SamplingWindowBoundsInjectTimes)
{
    json::Value config = test::makeConfig(kSmallTorus, R"({
        "applications": [{
            "type": "blast", "injection_rate": 0.2,
            "message_size": 1, "num_samples": 30,
            "warmup_duration": 1000,
            "traffic": {"type": "uniform_random"}}]})");
    Simulation simulation(config);
    RunResult result = simulation.run();
    Tick start = simulation.workload()->generateStartTick();
    EXPECT_GE(start, 1000u);
    for (const auto& s : result.sampler.samples()) {
        EXPECT_GE(s.createTick, start);
    }
}

TEST(Workload, PhaseEndsInDraining)
{
    json::Value config =
        test::makeConfig(kSmallTorus, test::blastWorkload(0.2, 1, 10));
    Simulation simulation(config);
    simulation.run();
    EXPECT_EQ(simulation.workload()->phase(), Phase::kDraining);
    // Draining emptied the network: no in-flight messages remain.
    EXPECT_EQ(simulation.network()->messagesInFlight(), 0u);
}

TEST(Workload, PulseBurstDeliversAll)
{
    json::Value config = test::makeConfig(kSmallTorus, R"({
        "applications": [{
            "type": "pulse", "injection_rate": 0.5,
            "num_messages": 15, "message_size": 2,
            "traffic": {"type": "uniform_random"}}]})");
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    EXPECT_EQ(result.sampler.count(), 4u * 15u);
}

TEST(Workload, BlastPlusPulseTransient)
{
    // The paper's Figure 5 composition: Blast defines steady state and
    // Completes immediately; Pulse's burst defines the window.
    json::Value config = test::makeConfig(kSmallTorus, R"({
        "applications": [
          {"type": "blast", "injection_rate": 0.15, "message_size": 1,
           "warmup_duration": 800,
           "traffic": {"type": "uniform_random"}},
          {"type": "pulse", "injection_rate": 0.3, "num_messages": 20,
           "message_size": 1, "delay": 200,
           "traffic": {"type": "uniform_random"}}
        ]})");
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    std::size_t blast = 0;
    std::size_t pulse = 0;
    for (const auto& s : result.sampler.samples()) {
        (s.app == 0 ? blast : pulse)++;
    }
    EXPECT_EQ(pulse, 4u * 20u);
    EXPECT_GT(blast, 0u);  // blast samples during the window too
}

TEST(Workload, MessageLogMatchesSampler)
{
    // Serial and partitioned runs both write the log from finalize(),
    // row for row in sampler order.
    for (const char* threads : {"", "simulator.threads=uint=2"}) {
        SCOPED_TRACE(threads);
        std::string log_path = testing::TempDir() + "workload_log.csv";
        json::Value config = test::makeConfig(kSmallTorus, strf(R"({
            "message_log": ")", log_path, R"(",
            "applications": [{
                "type": "blast", "injection_rate": 0.2,
                "message_size": 2, "num_samples": 10,
                "warmup_duration": 200,
                "traffic": {"type": "uniform_random"}}]})"));
        if (*threads != '\0') {
            json::applyOverrides(&config, {threads});
        }
        RunResult result = runSimulation(config);
        auto parsed = LogParser::parseFile(log_path);
        const auto& samples = result.sampler.samples();
        ASSERT_EQ(parsed.size(), samples.size());
        ASSERT_GT(samples.size(), 0u);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(TransactionLog::formatRow(parsed[i]),
                      TransactionLog::formatRow(samples[i]));
            EXPECT_EQ(parsed[i].flits, 2u);
        }
    }
}

TEST(Workload, ZeroRateBlastCompletesImmediately)
{
    json::Value config = test::makeConfig(kSmallTorus, R"({
        "applications": [{
            "type": "blast", "injection_rate": 0.0,
            "message_size": 1,
            "traffic": {"type": "uniform_random"}}]})");
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    EXPECT_EQ(result.sampler.count(), 0u);
}

TEST(Workload, ConfigurationErrorsAreFatal)
{
    // num_samples with zero rate can never finish: rejected up front.
    EXPECT_THROW(
        runSimulation(test::makeConfig(
            kSmallTorus, test::blastWorkload(0.0, 1, 5))),
        FatalError);
    // both completion modes at once
    EXPECT_THROW(runSimulation(test::makeConfig(kSmallTorus, R"({
        "applications": [{
            "type": "blast", "injection_rate": 0.1, "num_samples": 5,
            "sample_duration": 100,
            "traffic": {"type": "uniform_random"}}]})")),
                 FatalError);
    // empty application list
    EXPECT_THROW(runSimulation(test::makeConfig(
                     kSmallTorus, R"({"applications": []})")),
                 FatalError);
}

TEST(Workload, HopCountsAreExact)
{
    // Deterministic DOR on a ring: recorded hops must equal minimal.
    json::Value config =
        test::makeConfig(kSmallTorus, test::blastWorkload(0.1, 1, 20));
    RunResult result = runSimulation(config);
    for (const auto& s : result.sampler.samples()) {
        EXPECT_EQ(s.hops, s.minHops);
        EXPECT_FALSE(s.nonminimal);
    }
}

TEST(Workload, SaturationSetsFlag)
{
    // Offered load far beyond a single ring's capacity with a short time
    // limit: the run cannot drain and must report saturation.
    json::Value config = test::makeConfig(
        R"({"topology": "torus", "widths": [8], "concentration": 1,
            "num_vcs": 2, "clock_period": 1, "channel_latency": 3,
            "router": {"architecture": "input_queued",
                       "input_buffer_size": 4},
            "routing": {"algorithm": "torus_dimension_order"}})",
        test::blastWorkload(0.9, 4, 300), 1, 60000);
    RunResult result = runSimulation(config);
    EXPECT_TRUE(result.saturated);
}

TEST(WorkloadDeathTest, PartitionedMessageIdsNeverAlias)
{
    EXPECT_EQ(Terminal::packMessageId(255, (1u << 24) - 1, 0xffffffffu),
              ~std::uint64_t{0});
    EXPECT_EQ(Terminal::packMessageId(1, 2, 3),
              (std::uint64_t{1} << 56) | (std::uint64_t{2} << 32) | 3);
    // Each field out of range would silently reuse another message's id.
    EXPECT_THROW(Terminal::packMessageId(256, 0, 0), FatalError);
    EXPECT_THROW(Terminal::packMessageId(0, 1u << 24, 0), FatalError);
    EXPECT_DEATH(Terminal::packMessageId(0, 0, std::uint64_t{1} << 32),
                 "ran out of message ids");
}

}  // namespace
}  // namespace ss
