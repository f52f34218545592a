#include "network/network.h"

#include "json/settings.h"

namespace ss {

Network::Network(Simulator* simulator, const std::string& name,
                 const Component* parent, const json::Value& settings)
    : Component(simulator, name, parent),
      settings_(settings),
      numVcs_(static_cast<std::uint32_t>(
          json::getUint(settings, "num_vcs", 1))),
      channelPeriod_(json::getUint(settings, "clock_period", 1)),
      channelLatency_(json::getUint(settings, "channel_latency", 1)),
      terminalLatency_(json::getUint(settings, "terminal_latency", 1)),
      routerSettings_(settings.has("router") ? settings.at("router")
                                             : json::Value::object()),
      interfaceSettings_(settings.has("interface")
                             ? settings.at("interface")
                             : json::Value::object()),
      routingSettings_(settings.has("routing") ? settings.at("routing")
                                               : json::Value::object())
{
    checkUser(numVcs_ > 0, "network needs at least 1 VC");
    checkUser(channelPeriod_ > 0, "clock_period must be > 0");
    checkUser(channelLatency_ > 0,
              "channel_latency must be > 0: channels are the parallel "
              "executer's only cross-partition edges, and zero latency "
              "leaves it no lookahead");
    checkUser(terminalLatency_ > 0,
              "terminal_latency must be > 0: channels are the parallel "
              "executer's only cross-partition edges, and zero latency "
              "leaves it no lookahead");

    if (simulator->parallelRequested()) {
        // Shard the network: the plan depends only on the topology
        // settings (never the thread count), so every --threads value
        // produces the same partition structure and the same results.
        std::string topology =
            json::getString(settings, "topology", std::string());
        std::uint32_t requested = simulator->isParallel()
                                      ? simulator->numWorkerPartitions()
                                      : simulator->requestedPartitions();
        plan_ = buildPartitionPlan(topology, settings, requested);
        if (!simulator->isParallel()) {
            simulator->setupPartitions(plan_.count);
        }
    }
}

Network::~Network() = default;

std::uint32_t
Network::numInterfaces() const
{
    return static_cast<std::uint32_t>(interfaces_.size());
}

std::uint32_t
Network::numRouters() const
{
    return static_cast<std::uint32_t>(routers_.size());
}

Interface*
Network::interface(std::uint32_t id) const
{
    checkSim(id < interfaces_.size(), "interface id out of range");
    return interfaces_[id].get();
}

Router*
Network::router(std::uint32_t id) const
{
    checkSim(id < routers_.size(), "router id out of range");
    return routers_[id].get();
}

void
Network::registerMessage(std::unique_ptr<Message> message)
{
    std::unique_lock<std::mutex> lock(inFlightMutex_, std::defer_lock);
    if (simulator()->isParallel()) {
        lock.lock();
    }
    checkSim(message->registrySlot_ == Message::kNoSlot,
             "message ", message->id(), " registered twice");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        checkSim(inFlight_.size() < Message::kNoSlot,
                 "too many messages in flight");
        slot = static_cast<std::uint32_t>(inFlight_.size());
        inFlight_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    message->registrySlot_ = slot;
    inFlight_[slot] = std::move(message);
}

void
Network::releaseMessage(Message* message)
{
    std::unique_lock<std::mutex> lock(inFlightMutex_, std::defer_lock);
    if (simulator()->isParallel()) {
        lock.lock();
    }
    std::uint32_t slot = message->registrySlot_;
    checkSim(slot < inFlight_.size() && inFlight_[slot].get() == message,
             "releasing unregistered message ", message->id());
    inFlight_[slot].reset();
    freeSlots_.push_back(slot);
}

void
Network::setEjectMonitor(std::function<void(const Message*)> monitor)
{
    ejectMonitor_ = std::move(monitor);
}

void
Network::countEjectedFlit(const Message* message)
{
    if (ejectMonitor_) {
        ejectMonitor_(message);
    }
}

std::vector<std::pair<std::string, double>>
Network::channelUtilizations() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(channels_.size());
    for (const auto& channel : channels_) {
        out.emplace_back(channel->name(), channel->utilization());
    }
    return out;
}

std::uint64_t
Network::totalCreditsSent() const
{
    std::uint64_t total = 0;
    for (const auto& channel : creditChannels_) {
        total += channel->creditCount();
    }
    return total;
}

Router*
Network::makeRouter(const std::string& name, std::uint32_t id,
                    std::uint32_t num_ports,
                    RoutingAlgorithmFactoryFn routing_factory)
{
    std::string architecture =
        json::getString(routerSettings_, "architecture", "input_queued");
    // Pin the router (and every child component it constructs) to its
    // partition via the simulator's build cursor.
    if (plan_.assign) {
        simulator()->setBuildPartition(plan_.assign(id));
    }
    Router* router = RouterFactory::instance().create(
        architecture, simulator(), name, this, this, id, num_ports,
        numVcs_, routerSettings_, std::move(routing_factory),
        channelPeriod_);
    simulator()->setBuildPartition(Simulator::kAutoPartition);
    routers_.emplace_back(router);
    checkSim(router->id() == routers_.size() - 1,
             "router ids must be assigned in construction order");
    return router;
}

Interface*
Network::makeInterface(std::uint32_t id)
{
    auto* iface =
        new Interface(simulator(), strf("interface_", id), this, this, id,
                      numVcs_, interfaceSettings_, channelPeriod_);
    interfaces_.emplace_back(iface);
    checkSim(iface->id() == interfaces_.size() - 1,
             "interface ids must be assigned in construction order");
    return iface;
}

void
Network::linkRouters(Router* a, std::uint32_t port_a, Router* b,
                     std::uint32_t port_b, Tick latency)
{
    auto* flit_ch = new Channel(
        simulator(),
        strf("ch_r", a->id(), "p", port_a, "_r", b->id(), "p", port_b),
        this, latency, channelPeriod_);
    channels_.emplace_back(flit_ch);
    // A channel's delivery events run on its sink's partition: injecting
    // from the source side is then the (only) cross-partition schedule,
    // and the >= 1 tick latency is the executer's lookahead.
    flit_ch->setPartition(b->partition());
    a->setOutputChannel(port_a, flit_ch);
    b->setInputChannel(port_b, flit_ch);

    auto* credit_ch = new CreditChannel(
        simulator(),
        strf("cr_r", b->id(), "p", port_b, "_r", a->id(), "p", port_a),
        this, latency);
    creditChannels_.emplace_back(credit_ch);
    credit_ch->setPartition(a->partition());
    b->setCreditReturnChannel(port_b, credit_ch);
    a->setCreditInputChannel(port_a, credit_ch);

    a->setDownstreamCredits(port_a, b->inputBufferSize());

    routerLinks_.push_back({a, port_a, b, port_b, flit_ch, credit_ch});
}

void
Network::linkInterface(Interface* iface, Router* router,
                       std::uint32_t router_port, Tick latency)
{
    // The interface (and through it the terminal) lives on its router's
    // partition, so both directions of this link are partition-local.
    iface->setPartition(router->partition());

    // Interface -> router (injection direction).
    auto* inj_ch = new Channel(
        simulator(), strf("ch_i", iface->id(), "_r", router->id(), "p",
                          router_port),
        this, latency, channelPeriod_);
    channels_.emplace_back(inj_ch);
    inj_ch->setPartition(router->partition());
    iface->setOutputChannel(inj_ch);
    router->setInputChannel(router_port, inj_ch);

    auto* inj_credit = new CreditChannel(
        simulator(), strf("cr_r", router->id(), "p", router_port, "_i",
                          iface->id()),
        this, latency);
    creditChannels_.emplace_back(inj_credit);
    inj_credit->setPartition(router->partition());
    router->setCreditReturnChannel(router_port, inj_credit);
    iface->setCreditInputChannel(inj_credit);
    iface->setInjectionCredits(router->inputBufferSize());

    // Router -> interface (ejection direction).
    auto* ej_ch = new Channel(
        simulator(), strf("ch_r", router->id(), "p", router_port, "_i",
                          iface->id()),
        this, latency, channelPeriod_);
    channels_.emplace_back(ej_ch);
    ej_ch->setPartition(router->partition());
    router->setOutputChannel(router_port, ej_ch);
    iface->setInputChannel(ej_ch);

    auto* ej_credit = new CreditChannel(
        simulator(), strf("cr_i", iface->id(), "_r", router->id(), "p",
                          router_port),
        this, latency);
    creditChannels_.emplace_back(ej_credit);
    ej_credit->setPartition(router->partition());
    iface->setCreditReturnChannel(ej_credit);
    router->setCreditInputChannel(router_port, ej_credit);
    router->setDownstreamCredits(router_port,
                                 iface->ejectionBufferSize());
}

void
Network::finalizeRouters()
{
    for (auto& router : routers_) {
        // Components created during finalization (routing engines etc.)
        // belong with their router.
        simulator()->setBuildPartition(router->partition());
        router->finalize();
    }
    simulator()->setBuildPartition(Simulator::kAutoPartition);
}

RoutingAlgorithmFactoryFn
Network::standardRoutingFactory() const
{
    std::string algorithm =
        json::getString(routingSettings_, "algorithm");
    json::Value routing_settings = routingSettings_;
    return [algorithm, routing_settings](Router* router,
                                         std::uint32_t input_port) {
        return RoutingAlgorithmFactory::instance().create(
            algorithm, router->simulator(),
            strf("routing_", input_port), router, router, input_port,
            routing_settings);
    };
}

}  // namespace ss
