#include "router/output_queued_router.h"

#include "json/settings.h"
#include "network/network.h"
#include "types/message.h"

namespace ss {

OutputQueuedRouter::OutputQueuedRouter(
    Simulator* simulator, const std::string& name, const Component* parent,
    Network* network, std::uint32_t id, std::uint32_t num_ports,
    std::uint32_t num_vcs, const json::Value& settings,
    RoutingAlgorithmFactoryFn routing_factory, Tick channel_period)
    : Router(simulator, name, parent, network, id, num_ports, num_vcs,
             settings, std::move(routing_factory), channel_period),
      coreLatency_(json::getUint(settings, "core_latency", 1)),
      outputs_(this, static_cast<std::uint32_t>(json::getUint(
                         settings, "output_buffer_size", 0))),
      pipelineEvent_(this, &OutputQueuedRouter::processInputs)
{
    checkUser(coreLatency_ >= 1, "core_latency must be >= 1 tick");
    std::size_t slots = static_cast<std::size_t>(numPorts_) * numVcs_;
    inputs_.resize(slots);
    outputLocked_.resize(slots, false);
    outputHolder_.resize(slots, 0);
}

OutputQueuedRouter::~OutputQueuedRouter() = default;

std::size_t
OutputQueuedRouter::inputOccupancy(std::uint32_t port,
                                   std::uint32_t vc) const
{
    return inputs_[pv(port, vc)].buffer.size();
}

void
OutputQueuedRouter::finalize()
{
    Router::finalize();
    outputs_.initSensorCapacity();
}

void
OutputQueuedRouter::receiveFlit(std::uint32_t port, Flit* flit)
{
    checkSim(port < numPorts_, "flit port out of range");
    std::uint32_t vc = flit->vc();
    checkSim(vc < numVcs_, "flit vc out of range");
    InputVc& state = inputs_[pv(port, vc)];
    checkSim(state.buffer.size() < inputBufferSize_,
             fullName(), ": input buffer overrun on port ", port, " vc ",
             vc);
    state.buffer.push_back(flit);
    if (activity_) {
        ++activity_->bufferWrites;
    }
    if (flit->isHead()) {
        flit->packet()->incrementHopCount();
    }
    activate();
}

void
OutputQueuedRouter::activate()
{
    wakeAtEdge(&pipelineEvent_, coreClock());
}

void
OutputQueuedRouter::processInputs()
{
    Tick tick = now().tick;
    bool pending = false;

    // All inputs transfer independently — no scheduling conflicts.
    for (std::uint32_t port = 0; port < numPorts_; ++port) {
        for (std::uint32_t vc = 0; vc < numVcs_; ++vc) {
            InputVc& state = inputs_[pv(port, vc)];
            if (state.buffer.empty()) {
                continue;
            }
            Flit* flit = state.buffer.front();
            if (!state.routed) {
                checkSim(flit->isHead(),
                         "body flit at head of unrouted input VC");
                routeCheck(port, vc, flit->packet(), &options_);
                // The packet commits to the option with the most visible
                // free space among the returned set; adaptive algorithms
                // already collapsed the port choice using the sensor.
                std::uint32_t best = 0;
                double best_status = sensor()->status(options_[0].port,
                                                      options_[0].vc);
                for (std::uint32_t i = 1; i < options_.size(); ++i) {
                    double s =
                        sensor()->status(options_[i].port, options_[i].vc);
                    if (s < best_status) {
                        best = i;
                        best_status = s;
                    }
                }
                state.outPort = options_[best].port;
                state.outVc = options_[best].vc;
                state.routed = true;
            }
            std::size_t oi = pv(state.outPort, state.outVc);
            std::uint32_t self = static_cast<std::uint32_t>(
                pv(port, vc));
            // Wormhole contiguity: only the packet holding the output VC
            // may feed it (locked from its head until its tail).
            if (outputLocked_[oi] && outputHolder_[oi] != self) {
                pending = true;
                continue;
            }
            if (!outputs_.hasSpace(state.outPort, state.outVc)) {
                pending = true;  // stall; retry when the queue drains
                continue;
            }
            if (flit->isHead() && !flit->isTail()) {
                outputLocked_[oi] = true;
                outputHolder_[oi] = self;
            }
            if (flit->isTail()) {
                outputLocked_[oi] = false;
            }
            // Reserve the slot now; the sensor sees the decision
            // immediately (its own latency delays visibility).
            outputs_.reserve(state.outPort, state.outVc);
            state.buffer.pop_front();
            if (activity_) {
                ++activity_->bufferReads;
                ++activity_->crossbarTraversals;
            }
            returnCredit(port, vc);
            if (flit->isTail()) {
                state.routed = false;
            }
            flit->setVc(state.outVc);
            outputs_.transfer(flit, state.outPort, state.outVc,
                              Time(tick + coreLatency_, eps::kDelivery));
            if (!state.buffer.empty()) {
                pending = true;
            }
        }
    }
    if (pending) {
        activate();
    }
}

SS_REGISTER(RouterFactory, "output_queued", OutputQueuedRouter);

}  // namespace ss
