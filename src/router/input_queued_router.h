/**
 * @file
 * The input-queued (IQ) router microarchitecture (paper §IV-C).
 *
 * Modeled after the standard input-queued architecture in Dally & Towles:
 * per-(input port, VC) buffers, route computation per packet, output-VC
 * allocation for packet-contiguous wormhole flow, and a crossbar scheduler
 * with full input speedup (only output ports conflict). Flits wait in the
 * input queues until downstream credits are available.
 *
 * The crossbar scheduler implements the three flow control techniques of
 * the paper's §VI-C case study:
 *  - flit_buffer (FB): every flit re-arbitrates; competing packets on
 *    different VCs interleave on the output channel.
 *  - packet_buffer (PB): a packet only starts once the full packet fits
 *    downstream, and the output locks to it until the tail passes — no
 *    credit stalls mid-packet by construction.
 *  - winner_take_all (WTA): locks like PB but starts without the
 *    full-space guarantee; a credit stall releases the lock so other
 *    packets with credits can take over.
 */
#ifndef SS_ROUTER_INPUT_QUEUED_ROUTER_H_
#define SS_ROUTER_INPUT_QUEUED_ROUTER_H_

#include <memory>
#include <vector>

#include "arbiter/arbiter.h"
#include "network/router.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "types/bitmask.h"
#include "types/ring_queue.h"

namespace ss {

/** Flow control technique of the crossbar scheduler. */
enum class FlowControl : std::uint8_t {
    kFlitBuffer,
    kPacketBuffer,
    kWinnerTakeAll,
};

FlowControl flowControlFromString(const std::string& name);
const char* flowControlName(FlowControl fc);

/** The input-queued router. */
class InputQueuedRouter : public Router {
  public:
    InputQueuedRouter(Simulator* simulator, const std::string& name,
                      const Component* parent, Network* network,
                      std::uint32_t id, std::uint32_t num_ports,
                      std::uint32_t num_vcs, const json::Value& settings,
                      RoutingAlgorithmFactoryFn routing_factory,
                      Tick channel_period);
    ~InputQueuedRouter() override;

    FlowControl flowControl() const { return flowControl_; }
    Tick crossbarLatency() const { return crossbarLatency_; }

    /** Occupancy of an input buffer (tests/instrumentation). */
    std::size_t inputOccupancy(std::uint32_t port, std::uint32_t vc) const;

    // ----- FlitReceiver -----
    void receiveFlit(std::uint32_t port, Flit* flit) override;

  protected:
    void activate() override;

    /** One core-clock evaluation: RC, VC allocation, then switch
     *  allocation + traversal. */
    void processPipeline();

    // ----- hooks specialized by the IOQ subclass -----
    /** Free space for one more flit toward (port, vc). */
    virtual bool hasSpace(std::uint32_t port, std::uint32_t vc) const;
    /** Exact free-slot count toward (port, vc) (for packet_buffer). */
    virtual std::uint32_t spaceCount(std::uint32_t port,
                                     std::uint32_t vc) const;
    /** True if output @p port can accept a crossbar traversal launched
     *  at tick @p tick. */
    virtual bool outputReady(std::uint32_t port, Tick tick) const;
    /** Moves @p flit through the crossbar toward (port, vc), starting at
     *  tick @p tick. */
    virtual void dispatch(Flit* flit, std::uint32_t port, std::uint32_t vc,
                          Tick tick);

    struct InputVc {
        RingQueue<Flit*> buffer;
        bool routed = false;      ///< head packet's RC done
        bool allocated = false;   ///< holds an output VC
        std::uint32_t outPort = 0;
        std::uint32_t outVc = 0;
        std::vector<RoutingAlgorithm::Option> options;
    };

    struct OutputPortState {
        bool locked = false;  ///< PB/WTA channel lock
        std::uint32_t holder = 0;  ///< input index holding the lock
    };

    FlowControl flowControl_;
    Tick crossbarLatency_;

    std::vector<InputVc> inputs_;            // [port*numVcs+vc]
    Bitmask outputVcAllocated_;              // [port*numVcs+vc]
    std::vector<OutputPortState> outputState_;  // [port]
    std::vector<std::unique_ptr<Arbiter>> vcaArbiters_;  // per (o,v)
    std::vector<std::unique_ptr<Arbiter>> saArbiters_;   // per output port

    // Allocation candidate sets over input VCs [port*numVcs+vc], kept
    // current wherever an input VC's buffer or allocation changes, so the
    // pipeline visits only VCs that can act (DESIGN.md §12):
    //  - vcaPending_: non-empty and holding no output VC;
    //  - saRequests_[o]: non-empty and holding an output VC on port o.
    Bitmask vcaPending_;
    std::vector<Bitmask> saRequests_;  // [output port]
    Bitmask vcaRequested_;  // VC-allocation arbiters [o*numVcs+v] posted to
    std::size_t buffered_ = 0;  // flits in all input buffers
    InlineEvent<InputQueuedRouter> pipelineEvent_;

    // Observability. All pointers are nullptr when observability is
    // disabled, so every hot-path hook is a single branch on a cached
    // pointer (zero-overhead requirement; see DESIGN.md).
    obs::Counter* pipelineEvals_ = nullptr;
    obs::Counter* vcaGrants_ = nullptr;
    obs::Counter* saGrants_ = nullptr;
    obs::Histogram* hopLatency_ = nullptr;
    obs::TraceWriter* traceHops_ = nullptr;
    bool markHopArrival_ = false;  ///< hopLatency_ or traceHops_ active

  private:
    void runVcAllocation();
    void runSwitchAllocation();
    bool fcEligible(std::uint32_t input_index, const InputVc& state) const;
};

}  // namespace ss

#endif  // SS_ROUTER_INPUT_QUEUED_ROUTER_H_
