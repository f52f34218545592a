#include "network/router.h"

#include "core/simulator.h"
#include "json/settings.h"
#include "network/network.h"
#include "power/power_model.h"
#include "types/message.h"

namespace ss {

Router::Router(Simulator* simulator, const std::string& name,
               const Component* parent, Network* network, std::uint32_t id,
               std::uint32_t num_ports, std::uint32_t num_vcs,
               const json::Value& settings,
               RoutingAlgorithmFactoryFn routing_factory,
               Tick channel_period)
    : Component(simulator, name, parent),
      network_(network),
      id_(id),
      numPorts_(num_ports),
      numVcs_(num_vcs),
      inputBufferSize_(static_cast<std::uint32_t>(
          json::getUint(settings, "input_buffer_size", 16))),
      channelClock_(channel_period),
      coreClock_([&]() {
          std::uint64_t speedup = json::getUint(settings, "speedup", 1);
          checkUser(speedup >= 1, "router speedup must be >= 1");
          checkUser(channel_period % speedup == 0,
                    "channel period (", channel_period,
                    ") must be divisible by speedup (", speedup, ")");
          return Clock(channel_period / speedup);
      }())
{
    checkUser(num_ports > 0, "router needs ports");
    checkUser(num_vcs > 0, "router needs VCs");
    checkUser(inputBufferSize_ > 0, "input buffer size must be > 0");

    inputChannels_.resize(numPorts_, nullptr);
    outputChannels_.resize(numPorts_, nullptr);
    creditReturnChannels_.resize(numPorts_, nullptr);
    creditInputChannels_.resize(numPorts_, nullptr);
    downstreamCredits_.resize(
        static_cast<std::size_t>(numPorts_) * numVcs_, 0);
    downstreamCapacity_.resize(
        static_cast<std::size_t>(numPorts_) * numVcs_, 0);

    json::Value sensor_settings = json::Value::object();
    std::string sensor_type = "credit";
    if (settings.isObject() && settings.has("congestion_sensor")) {
        sensor_settings = settings.at("congestion_sensor");
        sensor_type = json::getString(sensor_settings, "type", "credit");
    }
    sensor_.reset(CongestionSensorFactory::instance().create(
        sensor_type, simulator, "sensor", this, numPorts_, numVcs_,
        sensor_settings));

    routingEngines_.resize(numPorts_);
    for (std::uint32_t port = 0; port < numPorts_; ++port) {
        routingEngines_[port].reset(routing_factory(this, port));
        checkUser(routingEngines_[port] != nullptr,
                  "routing factory returned null");
    }

    if (power::PowerModel* pm = simulator->powerModel()) {
        activity_ = pm->registerRouter(this);
    }
}

Router::~Router() = default;

void
Router::setInputChannel(std::uint32_t port, Channel* channel)
{
    checkSim(port < numPorts_, "input channel port out of range");
    checkSim(inputChannels_[port] == nullptr,
             "input channel already wired");
    inputChannels_[port] = channel;
    channel->setSink(this, port);
}

void
Router::setOutputChannel(std::uint32_t port, Channel* channel)
{
    checkSim(port < numPorts_, "output channel port out of range");
    checkSim(outputChannels_[port] == nullptr,
             "output channel already wired");
    outputChannels_[port] = channel;
}

void
Router::setCreditReturnChannel(std::uint32_t port, CreditChannel* channel)
{
    checkSim(port < numPorts_, "credit return port out of range");
    checkSim(creditReturnChannels_[port] == nullptr,
             "credit return channel already wired");
    creditReturnChannels_[port] = channel;
}

void
Router::setCreditInputChannel(std::uint32_t port, CreditChannel* channel)
{
    checkSim(port < numPorts_, "credit input port out of range");
    checkSim(creditInputChannels_[port] == nullptr,
             "credit input channel already wired");
    creditInputChannels_[port] = channel;
    channel->setSink(this, port);
}

void
Router::setDownstreamCredits(std::uint32_t port, std::uint32_t credits)
{
    checkSim(port < numPorts_, "downstream credit port out of range");
    for (std::uint32_t vc = 0; vc < numVcs_; ++vc) {
        downstreamCredits_[pv(port, vc)] = credits;
        downstreamCapacity_[pv(port, vc)] = credits;
        sensor_->initCapacity(port, vc, CreditPool::kDownstream, credits);
    }
}

void
Router::finalize()
{
}

void
Router::receiveCredit(std::uint32_t port, Credit credit)
{
    checkSim(port < numPorts_, "credit port out of range");
    checkSim(credit.vc < numVcs_, "credit vc out of range");
    std::size_t i = pv(port, credit.vc);
    downstreamCredits_[i] += credit.count;
    // Credits never exceed the declared buffer depth (§IV-D).
    checkSim(downstreamCredits_[i] <= downstreamCapacity_[i],
             "credit overflow on port ", port, " vc ", credit.vc, ": ",
             downstreamCredits_[i], " > ", downstreamCapacity_[i]);
    sensor_->creditEvent(port, credit.vc, CreditPool::kDownstream,
                         -static_cast<std::int32_t>(credit.count));
    activate();
}

std::uint32_t
Router::credits(std::uint32_t port, std::uint32_t vc) const
{
    checkSim(port < numPorts_ && vc < numVcs_,
             "credit query out of range");
    return downstreamCredits_[pv(port, vc)];
}

RoutingAlgorithm*
Router::routingEngine(std::uint32_t port) const
{
    checkSim(port < numPorts_, "routing engine port out of range");
    return routingEngines_[port].get();
}

bool
Router::outputWired(std::uint32_t port) const
{
    checkSim(port < numPorts_, "outputWired port out of range");
    return outputChannels_[port] != nullptr;
}

Channel*
Router::outputChannel(std::uint32_t port) const
{
    checkSim(port < numPorts_, "outputChannel port out of range");
    return outputChannels_[port];
}

fault::RouterFaultState*
Router::ensureFaultState()
{
    if (fault_ == nullptr) {
        fault_ = std::make_unique<fault::RouterFaultState>();
        fault_->stalled.assign(numPorts_, 0);
    }
    return fault_.get();
}

void
Router::faultBegin(const fault::FaultEdge& edge)
{
    checkSim(edge.port < numPorts_, "fault port out of range");
    if (edge.kind == fault::FaultKind::kRouterPortStall) {
        checkSim(fault_ != nullptr, "port stall on unarmed router");
        ++fault_->stalled[edge.port];
    }
    if (edge.sensorBias != 0.0) {
        // Adaptive routing sees the fault through the regular
        // congestion path: the port just looks maximally congested.
        sensor_->addFaultBias(edge.port, edge.sensorBias);
    }
}

void
Router::faultEnd(const fault::FaultEdge& edge)
{
    checkSim(edge.port < numPorts_, "fault port out of range");
    if (edge.kind == fault::FaultKind::kRouterPortStall) {
        checkSim(fault_ != nullptr && fault_->stalled[edge.port] > 0,
                 "stall end without stall begin");
        --fault_->stalled[edge.port];
    }
    if (edge.sensorBias != 0.0) {
        sensor_->addFaultBias(edge.port, -edge.sensorBias);
    }
    // Wake the pipeline: flits parked behind the fault drain again.
    activate();
}

void
Router::routeCheck(std::uint32_t input_port, std::uint32_t input_vc,
                   Packet* packet,
                   std::vector<RoutingAlgorithm::Option>* options)
{
    (void)input_vc;
    options->clear();
    RoutingAlgorithm* engine = routingEngines_[input_port].get();
    engine->route(packet, input_vc, options);
    // Error detection (§IV-D): the routing response must be non-empty,
    // must target wired output ports, and must only use registered VCs.
    checkSim(!options->empty(), fullName(),
             ": routing produced no options for packet of message ",
             packet->message()->id());
    for (const auto& option : *options) {
        checkSim(option.port < numPorts_, fullName(),
                 ": routing targeted invalid port ", option.port);
        checkSim(outputChannels_[option.port] != nullptr, fullName(),
                 ": routing targeted unused output port ", option.port);
        checkSim(option.vc < numVcs_, fullName(),
                 ": routing targeted invalid VC ", option.vc);
        checkSim(engine->vcAllowed(option.vc), fullName(),
                 ": routing used unregistered VC ", option.vc);
    }
}

void
Router::takeCredit(std::uint32_t port, std::uint32_t vc)
{
    std::size_t i = pv(port, vc);
    // Credits never go negative (§IV-D).
    checkSim(downstreamCredits_[i] > 0,
             "credit underflow on port ", port, " vc ", vc);
    --downstreamCredits_[i];
    sensor_->creditEvent(port, vc, CreditPool::kDownstream, +1);
}

void
Router::returnCredit(std::uint32_t port, std::uint32_t vc)
{
    checkSim(creditReturnChannels_[port] != nullptr,
             "no credit return channel on port ", port);
    creditReturnChannels_[port]->inject(Credit{vc, 1}, now().tick);
}

Router::OutputQueueStage::OutputQueueStage(Router* router,
                                           std::uint32_t size)
    : router_(router), size_(size)
{
    std::size_t slots =
        static_cast<std::size_t>(router->numPorts_) * router->numVcs_;
    queues_.resize(slots);
    reserved_.resize(slots, 0);
    events_.resize(router->numPorts_);
    for (std::uint32_t o = 0; o < router->numPorts_; ++o) {
        events_[o].bind(this, &OutputQueueStage::processOutput, o);
        drainArbiters_.push_back(ArbiterFactory::instance().createUnique(
            "round_robin", router->simulator(), strf("drain_arb_", o),
            router, router->numVcs_, json::Value::object()));
    }
}

void
Router::OutputQueueStage::initSensorCapacity()
{
    for (std::uint32_t o = 0; o < router_->numPorts_; ++o) {
        for (std::uint32_t v = 0; v < router_->numVcs_; ++v) {
            router_->sensor()->initCapacity(o, v, CreditPool::kOutputQueue,
                                            size_);
        }
    }
}

void
Router::OutputQueueStage::reserve(std::uint32_t port, std::uint32_t vc)
{
    ++reserved_[router_->pv(port, vc)];
    router_->sensor()->creditEvent(port, vc, CreditPool::kOutputQueue, +1);
}

void
Router::OutputQueueStage::transfer(Flit* flit, std::uint32_t port,
                                   std::uint32_t vc, Time arrival)
{
    router_->simulator()
        ->scheduleInlineFor<&OutputQueueStage::completeTransfer>(
            router_->partition(), this,
            Transfer{flit, port,
                     static_cast<std::uint32_t>(router_->pv(port, vc))},
            arrival);
}

void
Router::OutputQueueStage::completeTransfer(Transfer transfer)
{
    --reserved_[transfer.index];
    queues_[transfer.index].push_back(transfer.flit);
    if (router_->activity_) {
        ++router_->activity_->bufferWrites;
    }
    activateOutput(transfer.port);
}

void
Router::OutputQueueStage::activateOutput(std::uint32_t port)
{
    router_->wakeAtEdge(&events_[port], router_->channelClock_);
}

void
Router::OutputQueueStage::processOutput(std::uint32_t port)
{
    Router& r = *router_;
    Tick tick = r.now().tick;
    if (r.outputChannels_[port]->available(tick) && !r.portStalled(port)) {
        Arbiter* arb = drainArbiters_[port].get();
        for (std::uint32_t v = 0; v < r.numVcs_; ++v) {
            const auto& q = queues_[r.pv(port, v)];
            if (!q.empty() && r.credits(port, v) > 0) {
                arb->request(v, q.front()->packet()->injectTime().tick);
            }
        }
        std::uint32_t vc = arb->arbitrate();
        if (vc != Arbiter::kNone) {
            arb->grant(vc);
            std::size_t i = r.pv(port, vc);
            Flit* flit = queues_[i].front();
            queues_[i].pop_front();
            if (r.activity_) {
                ++r.activity_->arbitrations;
                ++r.activity_->bufferReads;
            }
            r.sensor()->creditEvent(port, vc, CreditPool::kOutputQueue, -1);
            r.takeCredit(port, vc);
            r.outputChannels_[port]->inject(flit, tick);
            // Freed space may unblock stalled inputs.
            r.activate();
        }
    }
    for (std::uint32_t v = 0; v < r.numVcs_; ++v) {
        if (!queues_[r.pv(port, v)].empty()) {
            activateOutput(port);
            break;
        }
    }
}

}  // namespace ss
