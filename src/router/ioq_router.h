/**
 * @file
 * The input-output-queued (IOQ) router microarchitecture (paper §IV-C,
 * Figure 6).
 *
 * Extends the input-queued architecture as a combined input/output queued
 * switch (Chuang et al.): flits wait in the input queues only until space
 * is available in the *output queues*; once in an output queue they wait
 * for downstream credits. With frequency speedup (core clock faster than
 * the channel clock) the crossbar moves more flits per channel cycle than
 * the links carry, emulating output queueing.
 *
 * The congestion sensor receives both output-queue occupancy events and
 * downstream credit events, enabling the paper's §VI-B credit accounting
 * study (output / downstream / both, per VC or per port).
 */
#ifndef SS_ROUTER_IOQ_ROUTER_H_
#define SS_ROUTER_IOQ_ROUTER_H_

#include "router/input_queued_router.h"

namespace ss {

/** The combined input/output-queued router. */
class IoqRouter : public InputQueuedRouter {
  public:
    IoqRouter(Simulator* simulator, const std::string& name,
              const Component* parent, Network* network, std::uint32_t id,
              std::uint32_t num_ports, std::uint32_t num_vcs,
              const json::Value& settings,
              RoutingAlgorithmFactoryFn routing_factory,
              Tick channel_period);
    ~IoqRouter() override;

    std::uint32_t outputBufferSize() const { return outputs_.size(); }

    /** Occupancy of an output queue (tests/instrumentation). */
    std::size_t
    outputOccupancy(std::uint32_t port, std::uint32_t vc) const
    {
        return outputs_.occupancy(port, vc);
    }

    void finalize() override;

  protected:
    // Crossbar hooks now gate on output-queue space instead of
    // downstream credits.
    bool hasSpace(std::uint32_t port, std::uint32_t vc) const override;
    std::uint32_t spaceCount(std::uint32_t port,
                             std::uint32_t vc) const override;
    bool outputReady(std::uint32_t port, Tick tick) const override;
    void dispatch(Flit* flit, std::uint32_t port, std::uint32_t vc,
                  Tick tick) override;

  private:
    OutputQueueStage outputs_;
};

}  // namespace ss

#endif  // SS_ROUTER_IOQ_ROUTER_H_
