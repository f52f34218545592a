/**
 * @file
 * Abstract network base (paper §IV-B).
 *
 * A Network defines the topology and owns the routing scheme. It
 * instantiates Router and Interface components (whose architectures it
 * does not define) and connects them with Channels, providing each Router
 * a factory for RoutingAlgorithm engines — keeping microarchitecture and
 * topology independent.
 *
 * The base class supplies the wiring helpers, the in-flight message
 * registry, and the construction plumbing shared by all topologies.
 */
#ifndef SS_NETWORK_NETWORK_H_
#define SS_NETWORK_NETWORK_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/component.h"
#include "factory/factory.h"
#include "json/json.h"
#include "network/channel.h"
#include "network/credit_channel.h"
#include "network/interface.h"
#include "network/router.h"
#include "topology/partitioner.h"
#include "types/message.h"

namespace ss {

/** Abstract base class of all topologies. */
class Network : public Component {
  public:
    /** @param settings the JSON "network" block */
    Network(Simulator* simulator, const std::string& name,
            const Component* parent, const json::Value& settings);
    ~Network() override;

    std::uint32_t numInterfaces() const;
    std::uint32_t numRouters() const;
    Interface* interface(std::uint32_t id) const;
    Router* router(std::uint32_t id) const;
    std::uint32_t numVcs() const { return numVcs_; }
    /** Channel cycle time in ticks. */
    Tick channelPeriod() const { return channelPeriod_; }

    /** Minimum number of router traversals between two terminals. */
    virtual std::uint32_t minimalHops(std::uint32_t src,
                                      std::uint32_t dst) const = 0;

    // ----- in-flight message registry -----
    /** Takes ownership of a message until delivery. */
    void registerMessage(std::unique_ptr<Message> message);
    /** Destroys a delivered message. */
    void releaseMessage(Message* message);
    /** Messages currently traversing the network. */
    std::size_t
    messagesInFlight() const
    {
        return inFlight_.size() - freeSlots_.size();
    }

    /** Workload hook: called once per flit ejected anywhere. */
    void setEjectMonitor(std::function<void(const Message*)> monitor);
    void countEjectedFlit(const Message* message);

    /** Per-channel utilization snapshot (name, busy fraction), one row
     *  per flit channel — the raw material for link-load analyses. */
    std::vector<std::pair<std::string, double>> channelUtilizations()
        const;

    /** Total credits ever carried by all credit channels — the
     *  network-wide credit-loop traffic (observability gauge). */
    std::uint64_t totalCreditsSent() const;

    /** One directed router-to-router link: src.srcPort -> dst.dstPort
     *  with its flit channel and the paired credit-return channel. The
     *  FaultController resolves link faults against this registry. */
    struct RouterLink {
        Router* src = nullptr;
        std::uint32_t srcPort = 0;
        Router* dst = nullptr;
        std::uint32_t dstPort = 0;
        Channel* data = nullptr;
        CreditChannel* credit = nullptr;
    };

    /** All directed router links in wiring order. */
    const std::vector<RouterLink>& routerLinks() const
    {
        return routerLinks_;
    }

  protected:
    // ----- construction helpers for topology subclasses -----

    /** Builds a router via the RouterFactory using the settings'
     *  "router" block, with @p num_ports ports, and stores it. */
    Router* makeRouter(const std::string& name, std::uint32_t id,
                       std::uint32_t num_ports,
                       RoutingAlgorithmFactoryFn routing_factory);

    /** Builds and stores a standard interface for terminal @p id. */
    Interface* makeInterface(std::uint32_t id);

    /** Creates the flit + credit channel pair for a directed router link
     *  a.port_a -> b.port_b and wires both sides. */
    void linkRouters(Router* a, std::uint32_t port_a, Router* b,
                     std::uint32_t port_b, Tick latency);

    /** Wires interface <-> router both directions with @p latency. */
    void linkInterface(Interface* iface, Router* router,
                       std::uint32_t router_port, Tick latency);

    /** Returns a routing factory that instantiates the algorithm named in
     *  settings' "routing.algorithm" via the global registry, passing the
     *  "routing" block as its settings. */
    RoutingAlgorithmFactoryFn standardRoutingFactory() const;

    /** The "routing" settings block ({} if absent). */
    const json::Value& routingSettings() const { return routingSettings_; }

    /** Calls finalize() on every router; topologies invoke this at the
     *  end of construction, after all wiring is done. */
    void finalizeRouters();

    /** Router-to-router channel latency from settings. */
    Tick channelLatency() const { return channelLatency_; }
    /** Interface-to-router channel latency from settings. */
    Tick terminalLatency() const { return terminalLatency_; }

    const json::Value settings_;

  private:
    std::uint32_t numVcs_;
    Tick channelPeriod_;
    Tick channelLatency_;
    Tick terminalLatency_;
    json::Value routerSettings_;
    json::Value interfaceSettings_;
    json::Value routingSettings_;

    /** The router -> partition assignment when the parallel executer is
     *  requested (assign is empty in serial mode). */
    PartitionPlan plan_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Interface>> interfaces_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<CreditChannel>> creditChannels_;
    std::vector<RouterLink> routerLinks_;
    /** The in-flight registry as a slot table: each registered message
     *  owns one slot (stored in the Message) until its release, and
     *  released slots are reused through freeSlots_, so steady-state
     *  registration allocates nothing. */
    std::vector<std::unique_ptr<Message>> inFlight_;
    std::vector<std::uint32_t> freeSlots_;
    /** Guards the registry in parallel mode: interfaces on different
     *  worker partitions register/release messages concurrently. */
    mutable std::mutex inFlightMutex_;
    std::function<void(const Message*)> ejectMonitor_;
};

/** Factory of topologies, keyed by the "topology" setting. */
using NetworkFactory = Factory<Network, Simulator*, const std::string&,
                               const Component*, const json::Value&>;

}  // namespace ss

#endif  // SS_NETWORK_NETWORK_H_
