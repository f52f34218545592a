/** @file Interface behavior: injection VC choice, wormhole streaming,
 *  credit policing, multi-application sinks. */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "json/settings.h"
#include "network/interface.h"
#include "network/network.h"
#include "sim/builder.h"
#include "test_util.h"

namespace ss {
namespace {

const char* kRing =
    R"({"topology": "torus", "widths": [2], "concentration": 1,
        "num_vcs": 4, "clock_period": 1, "channel_latency": 3,
        "router": {"architecture": "input_queued",
                   "input_buffer_size": 8},
        "routing": {"algorithm": "torus_dimension_order"}})";

TEST(Interface, CountsInjectedAndEjectedFlits)
{
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "pulse", "injection_rate": 0.5, "num_messages": 10,
            "message_size": 3,
            "traffic": {"type": "neighbor"}}]})");
    Simulation simulation(config);
    simulation.run();
    Interface* iface0 = simulation.network()->interface(0);
    Interface* iface1 = simulation.network()->interface(1);
    // Each terminal sent 10 3-flit messages to its neighbor on a 2-ring:
    // 30 flits out, 30 flits in, on both interfaces.
    EXPECT_EQ(iface0->flitsInjected(), 30u);
    EXPECT_EQ(iface0->flitsEjected(), 30u);
    EXPECT_EQ(iface1->flitsInjected(), 30u);
    EXPECT_EQ(iface1->flitsEjected(), 30u);
}

TEST(Interface, InjectionSpreadsPacketsAcrossVcs)
{
    // With 4 VCs and back-to-back packets, round-robin injection uses
    // every VC; the flit VC is visible at the receiving terminal... the
    // cleanest observable here: traffic flows at full rate (one flit
    // per cycle) even though a single VC's credits (8) are fewer than
    // the round trip would need for continuous streaming.
    json::Value config = test::makeConfig(
        R"({"topology": "torus", "widths": [2], "concentration": 1,
            "num_vcs": 4, "clock_period": 1, "channel_latency": 8,
            "router": {"architecture": "input_queued",
                       "input_buffer_size": 8,
                       "crossbar_latency": 1},
            "routing": {"algorithm": "torus_dimension_order"}})",
        R"({"applications": [{
            "type": "blast", "injection_rate": 0.9, "message_size": 1,
            "warmup_duration": 1000, "sample_duration": 4000,
            "traffic": {"type": "neighbor"}}]})",
        1, 100000);
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    // A single VC would cap near 8 credits / ~20-tick RTT = 0.4.
    EXPECT_GT(result.throughput(), 0.8);
}

TEST(Interface, SinkPerApplication)
{
    // Two blast apps on the same endpoints: each message reaches its
    // own app's terminal (distinct sinks on one interface).
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [
          {"type": "pulse", "injection_rate": 0.2, "num_messages": 5,
           "message_size": 1, "traffic": {"type": "neighbor"}},
          {"type": "pulse", "injection_rate": 0.2, "num_messages": 7,
           "message_size": 2, "traffic": {"type": "neighbor"}}
        ]})");
    RunResult result = runSimulation(config);
    std::size_t app0 = 0;
    std::size_t app1 = 0;
    for (const auto& s : result.sampler.samples()) {
        if (s.app == 0) {
            ++app0;
            EXPECT_EQ(s.flits, 1u);
        } else {
            ++app1;
            EXPECT_EQ(s.flits, 2u);
        }
    }
    EXPECT_EQ(app0, 10u);
    EXPECT_EQ(app1, 14u);
}

TEST(Interface, RejectsOutOfRangeDestination)
{
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "trace", "messages": [[0, 0, 1, 1]]}]})");
    Simulation simulation(config);
    auto message = std::make_unique<Message>(990, 0, 0, 99, 1, 8);
    message->setCreateTime(Time(0));
    EXPECT_THROW(
        simulation.network()->interface(0)->injectMessage(
            std::move(message)),
        FatalError);
}

using InterfaceDeathTest = ::testing::Test;

TEST(InterfaceDeathTest, WrongSourcePanics)
{
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "trace", "messages": [[0, 0, 1, 1]]}]})");
    Simulation simulation(config);
    auto message = std::make_unique<Message>(991, 0, 1, 0, 1, 8);
    message->setCreateTime(Time(0));
    EXPECT_DEATH(simulation.network()->interface(0)->injectMessage(
                     std::move(message)),
                 "source mismatch");
}

TEST(Workload, DuplicateSinkRegistrationIsFatal)
{
    // Two applications of the same workload register distinct app ids;
    // registering the same app id twice on one interface must fail.
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "trace", "messages": []}]})");
    Simulation simulation(config);
    class DummySink : public MessageSink {
        void messageDelivered(Message*) override {}
    } sink;
    EXPECT_THROW(
        simulation.network()->interface(0)->setMessageSink(0, &sink),
        FatalError);
}

TEST(MessageRegistryDeathTest, DiesOnDoubleRegistrationAndUnknownRelease)
{
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "trace", "messages": []}]})");
    Simulation simulation(config);
    Network* network = simulation.network();
    auto owned = std::make_unique<Message>(7, 0, 0, 1, 1, 8);
    Message* message = owned.get();
    network->registerMessage(std::move(owned));
    EXPECT_EQ(network->messagesInFlight(), 1u);
    EXPECT_DEATH(network->registerMessage(std::unique_ptr<Message>(message)),
                 "registered twice");

    Message stranger(8, 0, 0, 1, 1, 8);
    EXPECT_DEATH(network->releaseMessage(&stranger),
                 "releasing unregistered message 8");

    network->releaseMessage(message);
    EXPECT_EQ(network->messagesInFlight(), 0u);
}

TEST(MessageRegistry, ReusesReleasedSlots)
{
    json::Value config = test::makeConfig(kRing, R"({
        "applications": [{
            "type": "trace", "messages": []}]})");
    Simulation simulation(config);
    Network* network = simulation.network();
    std::vector<Message*> live;
    for (std::uint64_t id = 0; id < 4; ++id) {
        auto owned = std::make_unique<Message>(id, 0, 0, 1, 1, 8);
        live.push_back(owned.get());
        network->registerMessage(std::move(owned));
    }
    network->releaseMessage(live[1]);
    network->releaseMessage(live[2]);
    EXPECT_EQ(network->messagesInFlight(), 2u);
    for (std::uint64_t id = 4; id < 6; ++id) {
        auto owned = std::make_unique<Message>(id, 0, 0, 1, 1, 8);
        Message* raw = owned.get();
        network->registerMessage(std::move(owned));
        network->releaseMessage(raw);
    }
    network->releaseMessage(live[0]);
    network->releaseMessage(live[3]);
    EXPECT_EQ(network->messagesInFlight(), 0u);
}

}  // namespace
}  // namespace ss
