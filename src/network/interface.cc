#include "network/interface.h"

#include "json/settings.h"
#include "network/network.h"
#include "power/power_model.h"

namespace ss {

Interface::Interface(Simulator* simulator, const std::string& name,
                     const Component* parent, Network* network,
                     std::uint32_t id, std::uint32_t num_vcs,
                     const json::Value& settings, Tick channel_period)
    : Component(simulator, name, parent),
      network_(network),
      id_(id),
      numVcs_(num_vcs),
      ejectionBufferSize_(static_cast<std::uint32_t>(
          json::getUint(settings, "ejection_buffer_size", 1024))),
      channelClock_(channel_period),
      injectionEvent_(this, &Interface::processInjection)
{
    checkUser(num_vcs > 0, "interface needs VCs");
    checkUser(ejectionBufferSize_ > 0, "ejection buffer size must be > 0");
    injectionCredits_.resize(numVcs_, 0);

    if (simulator->observabilityEnabled()) {
        obs::MetricsRegistry& m = simulator->metrics();
        injectionStalls_ = m.counter(fullName() + ".injection_stalls");
        m.polledGauge(fullName() + ".flits_injected", [this]() {
            return static_cast<double>(flitsInjected_);
        });
        m.polledGauge(fullName() + ".flits_ejected", [this]() {
            return static_cast<double>(flitsEjected_);
        });
    }
    obs::TraceWriter* tw = simulator->traceWriter();
    tracePackets_ = (tw != nullptr && tw->packetsEnabled()) ? tw : nullptr;

    // Energy is derived from flitsInjected_/flitsEjected_; registration
    // only — no extra hot-path work.
    if (power::PowerModel* pm = simulator->powerModel()) {
        pm->registerInterface(this);
    }
}

Interface::~Interface() = default;

void
Interface::setOutputChannel(Channel* channel)
{
    checkSim(outputChannel_ == nullptr, "output channel already wired");
    outputChannel_ = channel;
}

void
Interface::setInputChannel(Channel* channel)
{
    checkSim(inputChannel_ == nullptr, "input channel already wired");
    inputChannel_ = channel;
    channel->setSink(this, 0);
}

void
Interface::setCreditReturnChannel(CreditChannel* channel)
{
    checkSim(creditReturnChannel_ == nullptr,
             "credit return channel already wired");
    creditReturnChannel_ = channel;
}

void
Interface::setCreditInputChannel(CreditChannel* channel)
{
    checkSim(creditInputChannel_ == nullptr,
             "credit input channel already wired");
    creditInputChannel_ = channel;
    channel->setSink(this, 0);
}

void
Interface::setInjectionCredits(std::uint32_t credits)
{
    injectionCreditCapacity_ = credits;
    for (std::uint32_t vc = 0; vc < numVcs_; ++vc) {
        injectionCredits_[vc] = credits;
    }
}

void
Interface::setMessageSink(std::uint32_t app_id, MessageSink* sink)
{
    if (app_id >= sinks_.size()) {
        sinks_.resize(app_id + 1, nullptr);
    }
    checkUser(sinks_[app_id] == nullptr,
              "message sink for app ", app_id, " already set on ",
              fullName());
    sinks_[app_id] = sink;
}

void
Interface::injectMessage(std::unique_ptr<Message> message)
{
    checkSim(message != nullptr, "null message injected");
    checkSim(message->source() == id_, "message source mismatch: ",
             message->source(), " != ", id_);
    checkUser(message->destination() < network_->numInterfaces(),
              "message destination ", message->destination(),
              " out of range");
    Message* raw = message.get();
    network_->registerMessage(std::move(message));
    for (std::uint32_t p = 0; p < raw->numPackets(); ++p) {
        injectionQueue_.push_back(raw->packet(p));
    }
    activate();
}

void
Interface::activate()
{
    wakeAtEdge(&injectionEvent_, channelClock_);
}

void
Interface::processInjection()
{
    if (injectionQueue_.empty()) {
        return;
    }
    if (fault_ != nullptr && fault_->pauseCount > 0) {
        // Paused terminal: park the queue without rescheduling; the
        // fault-end flip re-activates the injection pipeline.
        if (injectionStalls_) {
            injectionStalls_->inc();
        }
        return;
    }
    Tick tick = now().tick;
    if (!outputChannel_->available(tick)) {
        if (injectionStalls_) {
            injectionStalls_->inc();
        }
        activate();
        return;
    }
    Packet* packet = injectionQueue_.front();

    // A new packet picks its injection VC round-robin among VCs with at
    // least one credit; a streaming packet stays on its VC (wormhole).
    if (currentFlitIndex_ == 0) {
        std::uint32_t chosen = numVcs_;
        for (std::uint32_t i = 0; i < numVcs_; ++i) {
            std::uint32_t vc = (nextVc_ + i) % numVcs_;
            if (injectionCredits_[vc] > 0) {
                chosen = vc;
                break;
            }
        }
        if (chosen == numVcs_) {
            if (injectionStalls_) {
                injectionStalls_->inc();
            }
            activate();  // no credits anywhere; retry next cycle
            return;
        }
        currentVc_ = chosen;
        nextVc_ = (chosen + 1) % numVcs_;
        packet->setInjectTime(now());
    } else if (injectionCredits_[currentVc_] == 0) {
        if (injectionStalls_) {
            injectionStalls_->inc();
        }
        activate();  // credit stall mid-packet
        return;
    }

    Flit* flit = packet->flit(currentFlitIndex_);
    flit->setVc(currentVc_);
    flit->setInjectTime(now());
    --injectionCredits_[currentVc_];
    ++flitsInjected_;
    outputChannel_->inject(flit, tick);

    ++currentFlitIndex_;
    if (currentFlitIndex_ == packet->numFlits()) {
        currentFlitIndex_ = 0;
        injectionQueue_.pop_front();
    }
    if (!injectionQueue_.empty()) {
        activate();
    }
}

void
Interface::receiveFlit(std::uint32_t port, Flit* flit)
{
    (void)port;
    Packet* packet = flit->packet();
    Message* message = packet->message();
    // Error detection (§IV-D): every flit must arrive at the right
    // destination; order within the packet is checked by receiveFlit.
    checkSim(message->destination() == id_,
             "flit delivered to wrong destination: wanted ",
             message->destination(), ", got ", id_);
    ++flitsEjected_;
    network_->countEjectedFlit(message);

    // The ejection buffer drains immediately, so the credit goes straight
    // back upstream (the credit channel supplies the return latency).
    creditReturnChannel_->inject(Credit{flit->vc(), 1}, now().tick);

    if (packet->receiveFlit(flit)) {
        packet->setEjectTime(now());
        if (tracePackets_) {
            // Injection -> ejection lifetime span on the source
            // terminal's trace row; per-hop sub-spans live on the
            // router rows (same span name groups them when searching).
            Tick inject = packet->injectTime().tick;
            tracePackets_->completeEvent(
                obs::TraceWriter::kPidPackets, message->source(),
                strf("pkt m", message->id(), ".", packet->id()),
                "packet", inject, now().tick - inject,
                strf("{\"src\":", message->source(), ",\"dst\":",
                     message->destination(), ",\"flits\":",
                     packet->numFlits(), ",\"hops\":",
                     packet->hopCount(), "}"));
        }
        if (message->receivePacket(packet)) {
            message->setDeliverTime(now());
            std::uint32_t app = message->appId();
            checkSim(app < sinks_.size() && sinks_[app] != nullptr,
                     "no message sink for app ", app, " on ", fullName());
            sinks_[app]->messageDelivered(message);
            network_->releaseMessage(message);
        }
    }
}

fault::InterfaceFaultState*
Interface::ensureFaultState()
{
    if (fault_ == nullptr) {
        fault_ = std::make_unique<fault::InterfaceFaultState>();
    }
    return fault_.get();
}

void
Interface::faultBegin(const fault::FaultEdge& edge)
{
    (void)edge;
    checkSim(fault_ != nullptr, "fault flip on unarmed interface");
    ++fault_->pauseCount;
}

void
Interface::faultEnd(const fault::FaultEdge& edge)
{
    (void)edge;
    checkSim(fault_ != nullptr && fault_->pauseCount > 0,
             "pause end without pause begin");
    --fault_->pauseCount;
    if (fault_->pauseCount == 0 && !injectionQueue_.empty()) {
        activate();
    }
}

void
Interface::receiveCredit(std::uint32_t port, Credit credit)
{
    (void)port;
    checkSim(credit.vc < numVcs_, "interface credit vc out of range");
    injectionCredits_[credit.vc] += credit.count;
    checkSim(injectionCredits_[credit.vc] <= injectionCreditCapacity_,
             "interface credit overflow");
    if (!injectionQueue_.empty()) {
        activate();
    }
}

}  // namespace ss
