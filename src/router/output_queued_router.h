/**
 * @file
 * The output-queued (OQ) router microarchitecture (paper §IV-C).
 *
 * An idealistic architecture with zero head-of-line blocking and no
 * scheduling conflicts: all input ports can simultaneously move a flit
 * into any output queue. Output queues may be infinite or finite.
 *
 * Each packet commits to an output when its head is routed (using the —
 * possibly stale — congestion sensor, which is exactly what the paper's
 * §VI-A latent congestion detection study exercises). If the chosen
 * finite output queue is full, the input stalls until space frees up.
 */
#ifndef SS_ROUTER_OUTPUT_QUEUED_ROUTER_H_
#define SS_ROUTER_OUTPUT_QUEUED_ROUTER_H_

#include <vector>

#include "network/router.h"
#include "types/ring_queue.h"

namespace ss {

/** The idealized output-queued router. */
class OutputQueuedRouter : public Router {
  public:
    OutputQueuedRouter(Simulator* simulator, const std::string& name,
                       const Component* parent, Network* network,
                       std::uint32_t id, std::uint32_t num_ports,
                       std::uint32_t num_vcs, const json::Value& settings,
                       RoutingAlgorithmFactoryFn routing_factory,
                       Tick channel_period);
    ~OutputQueuedRouter() override;

    /** 0 means infinite. */
    std::uint32_t outputBufferSize() const { return outputs_.size(); }
    Tick coreLatency() const { return coreLatency_; }

    std::size_t inputOccupancy(std::uint32_t port, std::uint32_t vc) const;
    std::size_t
    outputOccupancy(std::uint32_t port, std::uint32_t vc) const
    {
        return outputs_.occupancy(port, vc);
    }

    void finalize() override;

    // ----- FlitReceiver -----
    void receiveFlit(std::uint32_t port, Flit* flit) override;

  protected:
    void activate() override;

  private:
    void processInputs();

    struct InputVc {
        RingQueue<Flit*> buffer;
        bool routed = false;  ///< head packet committed to outPort/outVc
        std::uint32_t outPort = 0;
        std::uint32_t outVc = 0;
    };

    Tick coreLatency_;

    std::vector<InputVc> inputs_;                 // [port*numVcs+vc]
    // Wormhole contiguity: an output VC is held by one packet from head
    // to tail so packets never interleave inside an output queue.
    std::vector<bool> outputLocked_;              // [port*numVcs+vc]
    std::vector<std::uint32_t> outputHolder_;     // input index
    OutputQueueStage outputs_;
    /** Route-computation scratch, reused across processInputs() calls. */
    std::vector<RoutingAlgorithm::Option> options_;
    InlineEvent<OutputQueuedRouter> pipelineEvent_;
};

}  // namespace ss

#endif  // SS_ROUTER_OUTPUT_QUEUED_ROUTER_H_
