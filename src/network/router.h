/**
 * @file
 * Abstract router base (paper §IV-B, §IV-C).
 *
 * A router is not made for a specific topology or routing algorithm: the
 * Network wires its ports to channels and hands it a factory for routing
 * engines. Concrete microarchitectures (OQ, IQ, IOQ) subclass this.
 *
 * The base class owns the structures every microarchitecture shares:
 * port/channel wiring, downstream credit accounting, the congestion
 * sensor, and per-input-port routing engines. It also defines the
 * output-queue stage that the output-queued and input-output-queued
 * microarchitectures both own.
 */
#ifndef SS_NETWORK_ROUTER_H_
#define SS_NETWORK_ROUTER_H_

#include <deque>
#include <memory>
#include <vector>

#include "arbiter/arbiter.h"
#include "congestion/congestion_sensor.h"
#include "core/clock.h"
#include "core/component.h"
#include "factory/factory.h"
#include "json/json.h"
#include "network/channel.h"
#include "network/credit_channel.h"
#include "network/routing_algorithm.h"
#include "power/activity.h"
#include "types/flit.h"
#include "types/ring_queue.h"

namespace ss {

class Network;

/** Abstract base class of all router microarchitectures. */
class Router : public Component,
               public FlitReceiver,
               public CreditReceiver,
               public fault::FaultTarget {
  public:
    /**
     * @param network    owning network
     * @param id         router id within the network
     * @param num_ports  radix
     * @param num_vcs    virtual channels per port
     * @param settings   the JSON "router" block
     * @param routing_factory builds the routing engine per input port
     * @param channel_period  tick period of attached channels
     */
    Router(Simulator* simulator, const std::string& name,
           const Component* parent, Network* network, std::uint32_t id,
           std::uint32_t num_ports, std::uint32_t num_vcs,
           const json::Value& settings,
           RoutingAlgorithmFactoryFn routing_factory, Tick channel_period);
    ~Router() override;

    Network* network() const { return network_; }
    std::uint32_t id() const { return id_; }
    std::uint32_t numPorts() const { return numPorts_; }
    std::uint32_t numVcs() const { return numVcs_; }
    std::uint32_t inputBufferSize() const { return inputBufferSize_; }

    /** The router core clock (channel clock divided by "speedup"). */
    const Clock& coreClock() const { return coreClock_; }
    /** The clock of the attached channels. */
    const Clock& channelClock() const { return channelClock_; }

    /** Congestion estimator consulted by adaptive routing. */
    CongestionSensor* sensor() const { return sensor_.get(); }

    // ----- wiring (called by the Network during construction) -----
    /** Incoming flit channel arriving at @p port (sink set here). */
    void setInputChannel(std::uint32_t port, Channel* channel);
    /** Outgoing flit channel departing from @p port. */
    void setOutputChannel(std::uint32_t port, Channel* channel);
    /** Credit channel this router uses to return input-buffer credits
     *  upstream for @p port. */
    void setCreditReturnChannel(std::uint32_t port, CreditChannel* channel);
    /** Credit channel delivering downstream credits for output @p port
     *  (sink set here). */
    void setCreditInputChannel(std::uint32_t port, CreditChannel* channel);
    /** Declares the downstream buffer depth per VC behind output
     *  @p port, initializing the credit count. */
    void setDownstreamCredits(std::uint32_t port, std::uint32_t credits);

    /** Hook called after all wiring is done. */
    virtual void finalize();

    // ----- CreditReceiver -----
    void receiveCredit(std::uint32_t port, Credit credit) override;

    /** Current downstream credit count for (port, vc). */
    std::uint32_t credits(std::uint32_t port, std::uint32_t vc) const;

    /** The routing engine serving input @p port (tests and topology
     *  validation walk routes through this). */
    RoutingAlgorithm* routingEngine(std::uint32_t port) const;

    /** True if output @p port is wired to a channel. */
    bool outputWired(std::uint32_t port) const;

    /** The channel wired to output @p port (nullptr if unwired). */
    Channel* outputChannel(std::uint32_t port) const;

    // ----- fault injection (FaultController only) -----
    /** Lazily allocates this router's per-port stall state. */
    fault::RouterFaultState* ensureFaultState();
    /** Applies/clears a port stall and/or sensor bias. */
    void faultBegin(const fault::FaultEdge& edge) override;
    void faultEnd(const fault::FaultEdge& edge) override;

  protected:
    /**
     * Per-(output port, VC) output queues drained onto the output
     * channels (DESIGN.md §13). A flit reserves its slot when it leaves
     * its input (reserve()), crosses the router core (transfer()) and
     * lands in the queue. Each output channel cycle, a round-robin
     * arbiter per port picks one VC that has a queued flit and a
     * downstream credit.
     */
    class OutputQueueStage {
      public:
        /** @param size flits per queue; 0 means infinite. */
        OutputQueueStage(Router* router, std::uint32_t size);

        std::uint32_t size() const { return size_; }

        /** Queued plus reserved flits of (port, vc). */
        std::size_t
        occupancy(std::uint32_t port, std::uint32_t vc) const
        {
            std::size_t i = router_->pv(port, vc);
            return queues_[i].size() + reserved_[i];
        }

        bool
        hasSpace(std::uint32_t port, std::uint32_t vc) const
        {
            return size_ == 0 || occupancy(port, vc) < size_;
        }

        /** Declares the queue depth to the sensor (from finalize()). */
        void initSensorCapacity();

        /** Reserves a slot of (port, vc); the sensor sees it at once. */
        void reserve(std::uint32_t port, std::uint32_t vc);

        /** Lands @p flit in the slot it reserved on (port, vc) at
         *  @p arrival. */
        void transfer(Flit* flit, std::uint32_t port, std::uint32_t vc,
                      Time arrival);

      private:
        /** A flit crossing the router core toward queue `index`. */
        struct Transfer {
            Flit* flit;
            std::uint32_t port;
            std::uint32_t index;
        };

        void completeTransfer(Transfer transfer);
        void activateOutput(std::uint32_t port);
        void processOutput(std::uint32_t port);

        Router* router_;
        std::uint32_t size_;
        std::vector<RingQueue<Flit*>> queues_;  // [port*numVcs+vc]
        std::vector<std::uint32_t> reserved_;    // in-transit slots
        std::vector<std::unique_ptr<Arbiter>> drainArbiters_;  // per port
        std::deque<InlineEvent<OutputQueueStage, std::uint32_t>> events_;
    };

    /** True while a fault stalls output @p port: microarchitectures
     *  gate their output stages on this (one null-pointer branch when
     *  faults never touched this router). */
    bool
    portStalled(std::uint32_t port) const
    {
        return fault_ != nullptr && fault_->stalled[port] > 0;
    }

    /** Microarchitecture hook: new work arrived; schedule the pipeline. */
    virtual void activate() = 0;

    /** Runs the routing engine for a head flit and validates the response
     *  (§IV-D checks: options non-empty, ports/VCs in range and
     *  registered). */
    void routeCheck(std::uint32_t input_port, std::uint32_t input_vc,
                    Packet* packet,
                    std::vector<RoutingAlgorithm::Option>* options);

    /** Consumes one downstream credit for (port, vc) and informs the
     *  sensor that one more downstream slot is occupied. */
    void takeCredit(std::uint32_t port, std::uint32_t vc);

    /** Returns one credit upstream for input @p port / @p vc. */
    void returnCredit(std::uint32_t port, std::uint32_t vc);

    Network* network_;
    std::uint32_t id_;
    std::uint32_t numPorts_;
    std::uint32_t numVcs_;
    std::uint32_t inputBufferSize_;
    Clock channelClock_;
    Clock coreClock_;

    std::vector<Channel*> inputChannels_;
    std::vector<Channel*> outputChannels_;
    std::vector<CreditChannel*> creditReturnChannels_;
    std::vector<CreditChannel*> creditInputChannels_;
    std::vector<std::uint32_t> downstreamCredits_;   // [port*numVcs+vc]
    std::vector<std::uint32_t> downstreamCapacity_;  // [port*numVcs+vc]
    std::unique_ptr<CongestionSensor> sensor_;
    std::vector<std::unique_ptr<RoutingAlgorithm>> routingEngines_;

    /** Activity counters of the power model, or nullptr when power
     *  modeling is disabled (microarchitectures gate on this pointer,
     *  mirroring the observability instruments). */
    power::ActivityCounters* activity_ = nullptr;

    /** Null unless the FaultController armed this router. */
    std::unique_ptr<fault::RouterFaultState> fault_;

    std::size_t
    pv(std::uint32_t port, std::uint32_t vc) const
    {
        return static_cast<std::size_t>(port) * numVcs_ + vc;
    }
};

/** Factory for router microarchitectures; keyed by the JSON setting
 *  "architecture". */
using RouterFactory =
    Factory<Router, Simulator*, const std::string&, const Component*,
            Network*, std::uint32_t, std::uint32_t, std::uint32_t,
            const json::Value&, RoutingAlgorithmFactoryFn, Tick>;

}  // namespace ss

#endif  // SS_NETWORK_ROUTER_H_
