#include "router/input_queued_router.h"

#include "json/settings.h"
#include "network/network.h"
#include "types/message.h"

namespace ss {

FlowControl
flowControlFromString(const std::string& name)
{
    if (name == "flit_buffer") {
        return FlowControl::kFlitBuffer;
    }
    if (name == "packet_buffer") {
        return FlowControl::kPacketBuffer;
    }
    if (name == "winner_take_all") {
        return FlowControl::kWinnerTakeAll;
    }
    fatal("unknown flow control '", name,
          "' (want flit_buffer|packet_buffer|winner_take_all)");
}

const char*
flowControlName(FlowControl fc)
{
    switch (fc) {
      case FlowControl::kFlitBuffer: return "flit_buffer";
      case FlowControl::kPacketBuffer: return "packet_buffer";
      case FlowControl::kWinnerTakeAll: return "winner_take_all";
    }
    return "?";
}

InputQueuedRouter::InputQueuedRouter(
    Simulator* simulator, const std::string& name, const Component* parent,
    Network* network, std::uint32_t id, std::uint32_t num_ports,
    std::uint32_t num_vcs, const json::Value& settings,
    RoutingAlgorithmFactoryFn routing_factory, Tick channel_period)
    : Router(simulator, name, parent, network, id, num_ports, num_vcs,
             settings, std::move(routing_factory), channel_period),
      pipelineEvent_(this, &InputQueuedRouter::processPipeline)
{
    json::Value scheduler = settings.isObject() &&
                                    settings.has("crossbar_scheduler")
                                ? settings.at("crossbar_scheduler")
                                : json::Value::object();
    flowControl_ = flowControlFromString(
        json::getString(scheduler, "flow_control", "flit_buffer"));
    crossbarLatency_ = json::getUint(settings, "crossbar_latency", 1);
    checkUser(crossbarLatency_ >= 1, "crossbar_latency must be >= 1 tick");

    std::string sa_arbiter =
        scheduler.isObject() && scheduler.has("arbiter")
            ? json::getString(scheduler.at("arbiter"), "type",
                              "round_robin")
            : "round_robin";
    json::Value arbiter_settings =
        scheduler.isObject() && scheduler.has("arbiter")
            ? scheduler.at("arbiter")
            : json::Value::object();

    // The VC allocator's arbiter policy is configurable too (age-based
    // allocation is part of what fixes parking-lot unfairness).
    json::Value vca = settings.isObject() && settings.has("vc_allocator")
                          ? settings.at("vc_allocator")
                          : json::Value::object();
    std::string vca_arbiter =
        vca.isObject() && vca.has("arbiter")
            ? json::getString(vca.at("arbiter"), "type", "round_robin")
            : "round_robin";
    json::Value vca_arbiter_settings =
        vca.isObject() && vca.has("arbiter") ? vca.at("arbiter")
                                             : json::Value::object();

    std::uint32_t slots = numPorts_ * numVcs_;
    inputs_.resize(slots);
    outputVcAllocated_ = Bitmask(slots);
    outputState_.resize(numPorts_);
    vcaPending_ = Bitmask(slots);
    saRequests_.assign(numPorts_, Bitmask(slots));
    vcaRequested_ = Bitmask(slots);

    // Observability instruments exist only when the layer is enabled;
    // otherwise the cached pointers stay null and the pipeline pays one
    // branch per hook.
    if (simulator->observabilityEnabled()) {
        obs::MetricsRegistry& m = simulator->metrics();
        pipelineEvals_ = m.counter(fullName() + ".pipeline_evals");
        vcaGrants_ = m.counter(fullName() + ".vca_grants");
        saGrants_ = m.counter(fullName() + ".sa_grants");
        hopLatency_ = m.histogram(fullName() + ".hop_latency");
        m.polledGauge(fullName() + ".input_occupancy", [this]() {
            return static_cast<double>(buffered_);
        });
    }
    obs::TraceWriter* tw = simulator->traceWriter();
    traceHops_ = (tw != nullptr && tw->hopsEnabled()) ? tw : nullptr;
    markHopArrival_ = traceHops_ != nullptr || hopLatency_ != nullptr;
    for (std::uint32_t o = 0; o < numPorts_; ++o) {
        saArbiters_.push_back(ArbiterFactory::instance().createUnique(
            sa_arbiter, simulator, strf("sa_arb_", o), this, slots,
            arbiter_settings));
        for (std::uint32_t v = 0; v < numVcs_; ++v) {
            vcaArbiters_.push_back(
                ArbiterFactory::instance().createUnique(
                    vca_arbiter, simulator, strf("vca_arb_", o, "_", v),
                    this, slots, vca_arbiter_settings));
        }
    }
}

InputQueuedRouter::~InputQueuedRouter() = default;

std::size_t
InputQueuedRouter::inputOccupancy(std::uint32_t port,
                                  std::uint32_t vc) const
{
    return inputs_[pv(port, vc)].buffer.size();
}

void
InputQueuedRouter::receiveFlit(std::uint32_t port, Flit* flit)
{
    checkSim(port < numPorts_, "flit port out of range");
    std::uint32_t vc = flit->vc();
    checkSim(vc < numVcs_, "flit vc out of range");
    InputVc& state = inputs_[pv(port, vc)];
    // Buffers never silently overrun (§IV-D).
    checkSim(state.buffer.size() < inputBufferSize_,
             fullName(), ": input buffer overrun on port ", port, " vc ",
             vc);
    state.buffer.push_back(flit);
    ++buffered_;
    if (state.allocated) {
        saRequests_[state.outPort].set(pv(port, vc));
    } else {
        vcaPending_.set(pv(port, vc));
    }
    if (activity_) {
        ++activity_->bufferWrites;
    }
    if (flit->isHead()) {
        flit->packet()->incrementHopCount();
        if (markHopArrival_) {
            flit->packet()->setHopArriveTick(now().tick);
        }
    }
    activate();
}

void
InputQueuedRouter::activate()
{
    wakeAtEdge(&pipelineEvent_, coreClock());
}

void
InputQueuedRouter::processPipeline()
{
    if (pipelineEvals_) {
        pipelineEvals_->inc();
    }
    runVcAllocation();
    runSwitchAllocation();

    // Conservative rescheduling: any buffered flit means work may remain.
    if (buffered_ > 0) {
        activate();
    }
}

void
InputQueuedRouter::runVcAllocation()
{
    // Stage 1: each unallocated input VC with a routed head picks its
    // preferred available option (most free space, random tiebreak) and
    // requests that output VC. Ascending input order fixes the order of
    // routing decisions and random draws.
    for (std::uint32_t idx = vcaPending_.next(0); idx != Bitmask::kEnd;
         idx = vcaPending_.next(idx + 1)) {
        std::uint32_t port = idx / numVcs_;
        std::uint32_t vc = idx % numVcs_;
        InputVc& state = inputs_[idx];
        Flit* front = state.buffer.front();
        // A body flit can never surface in an unallocated input VC:
        // its head acquired the output VC and only the tail releases
        // it (§IV-D ordering invariant).
        checkSim(front->isHead(),
                 "body flit at head of unallocated input VC: ",
                 "router ", id_, " port ", port, " vc ", vc,
                 " flit ", front->id(), " pkt ",
                 front->packet()->id(), " msg ",
                 front->packet()->message()->id(), " tick ",
                 now().tick);
        if (!state.routed) {
            routeCheck(port, vc, front->packet(), &state.options);
            state.routed = true;
        }
        // Pick among unallocated options.
        std::uint32_t best = Arbiter::kNone;
        std::uint32_t best_space = 0;
        std::uint32_t ties = 0;
        for (std::uint32_t i = 0; i < state.options.size(); ++i) {
            const auto& opt = state.options[i];
            if (outputVcAllocated_.test(pv(opt.port, opt.vc))) {
                continue;
            }
            std::uint32_t space = spaceCount(opt.port, opt.vc);
            if (best == Arbiter::kNone || space > best_space) {
                best = i;
                best_space = space;
                ties = 1;
            } else if (space == best_space) {
                // Reservoir-sample among equals for fairness.
                ++ties;
                if (random().nextU64(ties) == 0) {
                    best = i;
                }
            }
        }
        if (best != Arbiter::kNone) {
            // Metadata is the packet's injection tick for age-based
            // policies.
            const auto& opt = state.options[best];
            std::uint32_t resource = pv(opt.port, opt.vc);
            vcaArbiters_[resource]->request(
                idx, front->packet()->injectTime().tick);
            vcaRequested_.set(resource);
        }
    }
    // Stage 2: each requested (output port, VC) resource grants one
    // requester, in ascending (port, VC) order.
    for (std::uint32_t r = vcaRequested_.next(0); r != Bitmask::kEnd;
         r = vcaRequested_.next(r + 1)) {
        vcaRequested_.reset(r);
        Arbiter* arb = vcaArbiters_[r].get();
        std::uint32_t winner = arb->arbitrate();
        if (winner == Arbiter::kNone) {
            continue;
        }
        arb->grant(winner);
        if (vcaGrants_) {
            vcaGrants_->inc();
        }
        if (activity_) {
            ++activity_->arbitrations;
        }
        InputVc& state = inputs_[winner];
        state.allocated = true;
        state.outPort = r / numVcs_;
        state.outVc = r % numVcs_;
        outputVcAllocated_.set(r);
        vcaPending_.reset(winner);
        saRequests_[state.outPort].set(winner);
    }
}

bool
InputQueuedRouter::fcEligible(std::uint32_t input_index,
                              const InputVc& state) const
{
    const OutputPortState& out = outputState_[state.outPort];
    Flit* front = state.buffer.front();
    switch (flowControl_) {
      case FlowControl::kFlitBuffer:
        return hasSpace(state.outPort, state.outVc);
      case FlowControl::kPacketBuffer:
        if (out.locked) {
            // Only the holder may stream; space was reserved up front.
            return out.holder == input_index;
        }
        // A new packet needs room for all of it before starting.
        return front->isHead() &&
               spaceCount(state.outPort, state.outVc) >=
                   front->packet()->numFlits();
      case FlowControl::kWinnerTakeAll:
        if (out.locked && out.holder != input_index) {
            return false;  // lock released before SA when holder stalls
        }
        return hasSpace(state.outPort, state.outVc);
    }
    return false;
}

void
InputQueuedRouter::runSwitchAllocation()
{
    Tick tick = now().tick;
    for (std::uint32_t o = 0; o < numPorts_; ++o) {
        OutputPortState& out = outputState_[o];
        const Bitmask& candidates = saRequests_[o];
        bool wta_locked =
            flowControl_ == FlowControl::kWinnerTakeAll && out.locked;
        // outputReady() has no side effects, so a port with neither
        // candidates nor a WTA lock to check has nothing to do.
        if (!wta_locked && !candidates.any()) {
            continue;
        }
        if (!outputReady(o, tick)) {
            continue;
        }
        // WTA: a stalled lock holder releases the output (paper §VI-C).
        if (wta_locked) {
            const InputVc& holder = inputs_[out.holder];
            bool holder_can_go = !holder.buffer.empty() &&
                                 hasSpace(holder.outPort, holder.outVc);
            if (!holder_can_go) {
                out.locked = false;
            }
        }
        // Gather eligible competitors in ascending input order.
        Arbiter* arb = saArbiters_[o].get();
        for (std::uint32_t idx = candidates.next(0); idx != Bitmask::kEnd;
             idx = candidates.next(idx + 1)) {
            const InputVc& state = inputs_[idx];
            if (!fcEligible(idx, state)) {
                continue;
            }
            // Age metadata: injection tick of the packet (older wins
            // under the "age" arbiter policy).
            arb->request(idx, state.buffer.front()->packet()
                                  ->injectTime().tick);
        }
        std::uint32_t winner = arb->arbitrate();
        if (winner == Arbiter::kNone) {
            continue;
        }
        arb->grant(winner);

        InputVc& state = inputs_[winner];
        Flit* flit = state.buffer.front();
        state.buffer.pop_front();
        --buffered_;
        if (state.buffer.empty()) {
            saRequests_[o].reset(winner);
        }
        if (activity_) {
            ++activity_->arbitrations;
            ++activity_->bufferReads;
            ++activity_->crossbarTraversals;
        }
        std::uint32_t in_port = winner / numVcs_;
        std::uint32_t in_vc = winner % numVcs_;

        if (saGrants_) {
            saGrants_->inc();
        }
        if (markHopArrival_ && flit->isHead()) {
            Packet* packet = flit->packet();
            Tick arrive = packet->hopArriveTick();
            if (hopLatency_) {
                hopLatency_->record(tick - arrive);
            }
            if (traceHops_) {
                traceHops_->completeEvent(
                    obs::TraceWriter::kPidRouters, id_,
                    strf("pkt m", packet->message()->id(), ".",
                         packet->id()),
                    "hop", arrive, tick - arrive,
                    strf("{\"in_port\":", in_port, ",\"out_port\":",
                         state.outPort, ",\"out_vc\":", state.outVc,
                         "}"));
            }
        }
        dispatch(flit, state.outPort, state.outVc, tick);
        returnCredit(in_port, in_vc);

        // Lock bookkeeping for PB/WTA.
        if (flowControl_ != FlowControl::kFlitBuffer) {
            out.locked = true;
            out.holder = winner;
        }
        if (flit->isTail()) {
            if (flowControl_ != FlowControl::kFlitBuffer) {
                out.locked = false;
            }
            // Release the output VC and prepare for the next packet.
            outputVcAllocated_.reset(pv(state.outPort, state.outVc));
            state.allocated = false;
            state.routed = false;
            state.options.clear();
            saRequests_[o].reset(winner);
            if (!state.buffer.empty()) {
                vcaPending_.set(winner);
            }
        }
    }
}

bool
InputQueuedRouter::hasSpace(std::uint32_t port, std::uint32_t vc) const
{
    return credits(port, vc) > 0;
}

std::uint32_t
InputQueuedRouter::spaceCount(std::uint32_t port, std::uint32_t vc) const
{
    return credits(port, vc);
}

bool
InputQueuedRouter::outputReady(std::uint32_t port, Tick tick) const
{
    return outputChannels_[port] != nullptr &&
           outputChannels_[port]->available(tick + crossbarLatency_) &&
           !portStalled(port);
}

void
InputQueuedRouter::dispatch(Flit* flit, std::uint32_t port,
                            std::uint32_t vc, Tick tick)
{
    flit->setVc(vc);
    takeCredit(port, vc);
    outputChannels_[port]->inject(flit, tick + crossbarLatency_);
}

SS_REGISTER(RouterFactory, "input_queued", InputQueuedRouter);

}  // namespace ss
