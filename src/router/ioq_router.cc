#include "router/ioq_router.h"

#include "json/settings.h"
#include "network/network.h"

namespace ss {

IoqRouter::IoqRouter(Simulator* simulator, const std::string& name,
                     const Component* parent, Network* network,
                     std::uint32_t id, std::uint32_t num_ports,
                     std::uint32_t num_vcs, const json::Value& settings,
                     RoutingAlgorithmFactoryFn routing_factory,
                     Tick channel_period)
    : InputQueuedRouter(simulator, name, parent, network, id, num_ports,
                        num_vcs, settings, std::move(routing_factory),
                        channel_period),
      outputs_(this, static_cast<std::uint32_t>(json::getUint(
                         settings, "output_buffer_size", 64)))
{
    checkUser(outputs_.size() > 0,
              "IOQ output_buffer_size must be > 0 (finite)");
    if (simulator->observabilityEnabled()) {
        simulator->metrics().polledGauge(
            fullName() + ".output_occupancy", [this]() {
                std::size_t total = 0;
                for (std::uint32_t o = 0; o < numPorts_; ++o) {
                    for (std::uint32_t v = 0; v < numVcs_; ++v) {
                        total += outputs_.occupancy(o, v);
                    }
                }
                return static_cast<double>(total);
            });
    }
}

IoqRouter::~IoqRouter() = default;

void
IoqRouter::finalize()
{
    InputQueuedRouter::finalize();
    outputs_.initSensorCapacity();
}

bool
IoqRouter::hasSpace(std::uint32_t port, std::uint32_t vc) const
{
    return outputs_.hasSpace(port, vc);
}

std::uint32_t
IoqRouter::spaceCount(std::uint32_t port, std::uint32_t vc) const
{
    std::size_t occupied = outputs_.occupancy(port, vc);
    return occupied >= outputs_.size()
               ? 0
               : outputs_.size() - static_cast<std::uint32_t>(occupied);
}

bool
IoqRouter::outputReady(std::uint32_t port, Tick tick) const
{
    (void)tick;
    // Output conflicts are absorbed by the output queues; the crossbar
    // serves one flit per output per *core* cycle, so frequency speedup
    // directly becomes crossbar speedup.
    return outputChannels_[port] != nullptr;
}

void
IoqRouter::dispatch(Flit* flit, std::uint32_t port, std::uint32_t vc,
                    Tick tick)
{
    checkSim(outputs_.hasSpace(port, vc), fullName(),
             ": output queue overrun on port ", port, " vc ", vc);
    flit->setVc(vc);
    // The sensor sees the occupancy at reservation time — the moment the
    // scheduling decision is made.
    outputs_.reserve(port, vc);
    outputs_.transfer(flit, port, vc,
                      Time(tick + crossbarLatency_, eps::kDelivery));
}

SS_REGISTER(RouterFactory, "input_output_queued", IoqRouter);

}  // namespace ss
