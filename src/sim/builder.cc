#include "sim/builder.h"

#include "json/settings.h"

namespace ss {

Simulation::Simulation(const json::Value& config) : config_(config)
{
    json::Value sim_settings = config.has("simulator")
                                   ? config.at("simulator")
                                   : json::Value::object();
    std::uint64_t seed = json::getUint(sim_settings, "seed", 12345);
    // --strict / simulator.strict: unknown keys in validated blocks
    // become fatal instead of warnings.
    bool strict = json::getBool(sim_settings, "strict", false);
    simulator_ = std::make_unique<Simulator>(seed);
    simulator_->setTimeLimit(
        json::getUint(sim_settings, "time_limit", 0));
    simulator_->setDebug(json::getBool(sim_settings, "debug", false));

    // Partitioned parallel execution: "threads" >= 1 turns it on (the
    // network picks the partition plan during construction); absent/0
    // runs serially, with no worker partitions. "partitions" overrides the
    // Partitioner's automatic count (0 = automatic).
    std::uint64_t threads = json::getUint(sim_settings, "threads", 0);
    std::uint64_t partitions =
        json::getUint(sim_settings, "partitions", 0);
    if (threads >= 1) {
        simulator_->requestParallel(
            static_cast<std::uint32_t>(threads),
            static_cast<std::uint32_t>(partitions));
    } else {
        checkUser(partitions == 0,
                  "simulator.partitions requires simulator.threads >= 1");
    }

    // Observability must exist before the network so routers/interfaces
    // see the enabled flag and register their instruments at build time.
    observability_ =
        std::make_unique<obs::Observability>(simulator_.get(), config);

    // The power model follows the same build-before-the-network rule so
    // routers/channels/interfaces can register during construction.
    power_ = power::PowerModel::fromConfig(simulator_.get(), config,
                                           strict);
    if (power_) {
        simulator_->setPowerModel(power_.get());
    }

    // Parse the fault block before the network exists so config errors
    // surface fast; arming waits until the topology is wired.
    fault_ =
        fault::FaultController::fromConfig(simulator_.get(), config,
                                           strict);

    checkUser(config.has("network"), "config needs a 'network' block");
    const json::Value& network_settings = config.at("network");
    std::string topology =
        json::getString(network_settings, "topology");
    network_.reset(NetworkFactory::instance().create(
        topology, simulator_.get(), "network", nullptr,
        network_settings));
    observability_->attachNetwork(network_.get());
    if (fault_) {
        fault_->arm(network_.get());
    }

    checkUser(config.has("workload"), "config needs a 'workload' block");
    workload_ = std::make_unique<Workload>(
        simulator_.get(), "workload", nullptr, network_.get(),
        config.at("workload"));
}

Simulation::~Simulation() = default;

RunResult
Simulation::run()
{
    observability_->start();
    simulator_->run();
    workload_->finalize();
    if (fault_) {
        // Before the collector finishes: the recovery histogram and
        // fault trace spans land in the observability outputs.
        fault_->finalize(simulator_->now().tick);
    }
    observability_->finish();

    RunResult result;
    result.saturated = simulator_->timeLimitHit();
    result.eventsExecuted = simulator_->eventsExecuted();
    result.endTick = simulator_->now().tick;
    result.wallSeconds = simulator_->runWallSeconds();
    result.eventRate = simulator_->lastRunEventRate();
    result.peakQueueDepth = simulator_->peakQueueDepth();
    result.sampler = workload_->sampler();
    result.rateMonitor = workload_->rateMonitor();
    if (result.rateMonitor.running()) {
        // Saturated run: close the measurement window at the time limit
        // so accepted throughput is still meaningful.
        result.rateMonitor.stop(result.endTick);
    }
    result.numTerminals = network_->numInterfaces();
    result.channelPeriod = network_->channelPeriod();
    if (power_) {
        result.energy = power_->report(result.endTick);
    }
    if (fault_) {
        result.resilience = fault_->report();
    }
    return result;
}

RunResult
runSimulation(const json::Value& config)
{
    Simulation simulation(config);
    return simulation.run();
}

}  // namespace ss
