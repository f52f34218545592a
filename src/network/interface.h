/**
 * @file
 * The network interface: one per endpoint (paper §IV-B).
 *
 * On the injection side the interface packetizes messages, assigns each
 * packet an injection VC, and streams flits into its router obeying the
 * credit loop. On the ejection side it verifies ordering/destination
 * (§IV-D), reassembles packets into messages, returns credits, and hands
 * completed messages to the registered per-application MessageSink.
 */
#ifndef SS_NETWORK_INTERFACE_H_
#define SS_NETWORK_INTERFACE_H_

#include <memory>
#include <vector>

#include "core/clock.h"
#include "core/event.h"
#include "core/component.h"
#include "json/json.h"
#include "network/channel.h"
#include "network/credit_channel.h"
#include "network/message_sink.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "types/message.h"
#include "types/ring_queue.h"

namespace ss {

class Network;

/** A standard endpoint interface. */
class Interface : public Component,
                  public FlitReceiver,
                  public CreditReceiver,
                  public fault::FaultTarget {
  public:
    /**
     * @param id       terminal id this interface serves
     * @param num_vcs  VCs on the attached link
     * @param settings the JSON "interface" block
     * @param channel_period tick period of the attached channels
     */
    Interface(Simulator* simulator, const std::string& name,
              const Component* parent, Network* network, std::uint32_t id,
              std::uint32_t num_vcs, const json::Value& settings,
              Tick channel_period);
    ~Interface() override;

    Network* network() const { return network_; }
    std::uint32_t id() const { return id_; }
    std::uint32_t numVcs() const { return numVcs_; }

    /** Flits arriving here may occupy at most this many slots; the
     *  upstream router sees this as its downstream buffer depth. */
    std::uint32_t ejectionBufferSize() const { return ejectionBufferSize_; }

    // ----- wiring (called by the Network) -----
    void setOutputChannel(Channel* channel);        // to the router
    void setInputChannel(Channel* channel);         // from the router
    void setCreditReturnChannel(CreditChannel* channel);  // ejection credits
    void setCreditInputChannel(CreditChannel* channel);   // injection credits
    /** Router input buffer depth per VC — the injection credit pool. */
    void setInjectionCredits(std::uint32_t credits);

    /** Registers the sink for messages of application @p app_id. */
    void setMessageSink(std::uint32_t app_id, MessageSink* sink);

    /** Accepts a message for injection; ownership moves to the network's
     *  in-flight registry until delivery. */
    void injectMessage(std::unique_ptr<Message> message);

    /** Number of flits ejected here so far (throughput accounting). */
    std::uint64_t flitsEjected() const { return flitsEjected_; }
    /** Number of flits injected here so far. */
    std::uint64_t flitsInjected() const { return flitsInjected_; }

    // ----- FlitReceiver / CreditReceiver -----
    void receiveFlit(std::uint32_t port, Flit* flit) override;
    void receiveCredit(std::uint32_t port, Credit credit) override;

    /** The injection channel towards the router (recovery probes of
     *  terminal_pause faults attach here). */
    Channel* outputChannel() const { return outputChannel_; }

    // ----- fault injection (FaultController only) -----
    /** Lazily allocates this interface's pause state. */
    fault::InterfaceFaultState* ensureFaultState();
    void faultBegin(const fault::FaultEdge& edge) override;
    void faultEnd(const fault::FaultEdge& edge) override;

  private:
    void activate();
    void processInjection();

    Network* network_;
    std::uint32_t id_;
    std::uint32_t numVcs_;
    std::uint32_t ejectionBufferSize_;
    Clock channelClock_;

    Channel* outputChannel_ = nullptr;
    Channel* inputChannel_ = nullptr;
    CreditChannel* creditReturnChannel_ = nullptr;
    CreditChannel* creditInputChannel_ = nullptr;

    std::vector<std::uint32_t> injectionCredits_;   // per VC
    std::uint32_t injectionCreditCapacity_ = 0;
    std::vector<MessageSink*> sinks_;               // per app

    RingQueue<Packet*> injectionQueue_;
    std::uint32_t currentFlitIndex_ = 0;  // within injectionQueue_.front()
    std::uint32_t currentVc_ = 0;         // VC of the streaming packet
    std::uint32_t nextVc_ = 0;            // round-robin VC pointer
    InlineEvent<Interface> injectionEvent_;

    std::uint64_t flitsInjected_ = 0;
    std::uint64_t flitsEjected_ = 0;

    // Observability (nullptr when disabled — single cached-pointer
    // branch per hook).
    obs::Counter* injectionStalls_ = nullptr;
    obs::TraceWriter* tracePackets_ = nullptr;

    /** Null unless the FaultController armed this interface. */
    std::unique_ptr<fault::InterfaceFaultState> fault_;
};

}  // namespace ss

#endif  // SS_NETWORK_INTERFACE_H_
