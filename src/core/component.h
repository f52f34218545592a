/**
 * @file
 * Base class for everything that lives in a simulation (paper §III-A).
 *
 * A component has a hierarchical name ("network.router_3.input_0"), links
 * to the global simulator object, and helpers for scheduling events and
 * deterministic per-component randomness.
 */
#ifndef SS_CORE_COMPONENT_H_
#define SS_CORE_COMPONENT_H_

#include <functional>
#include <string>

#include "core/clock.h"
#include "core/event.h"
#include "core/logging.h"
#include "core/simulator.h"
#include "core/time.h"
#include "rng/random.h"

namespace ss {

/** A named simulation object connected to the DES engine. */
class Component {
  public:
    /** @param simulator the owning simulation engine
     *  @param name      this component's local name
     *  @param parent    enclosing component, or nullptr for a root */
    Component(Simulator* simulator, const std::string& name,
              const Component* parent);
    virtual ~Component();

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /** Local (leaf) name. */
    const std::string& name() const { return name_; }

    /** Fully qualified dotted name. */
    const std::string& fullName() const { return fullName_; }

    Simulator* simulator() const { return simulator_; }

    /** Current simulation time. */
    Time now() const { return simulator_->now(); }

    /** Deterministic per-component random stream. */
    Random& random() { return random_; }

    /** The partition this component's events execute on. Defaults to the
     *  simulator's build-time cursor (Simulator::kAutoPartition — the
     *  control partition — unless the network set the cursor around
     *  construction); serial mode has a single partition. */
    std::uint32_t partition() const { return partition_; }
    void setPartition(std::uint32_t partition) { partition_ = partition; }

    /** Schedules a caller-owned event on this component's partition. */
    void
    schedule(Event* event, Time time, bool background = false)
    {
        simulator_->scheduleFor(partition_, event, time, background);
    }

    /** Schedules @p event at the first edge of @p clock strictly after
     *  now, in the pipeline phase (eps::kPipeline), unless it is already
     *  pending: the clock-driven wake-up of routers and interfaces. */
    void
    wakeAtEdge(Event* event, const Clock& clock)
    {
        if (event->pending()) {
            return;
        }
        Time when(clock.nextEdge(now().tick), eps::kPipeline);
        if (when <= now()) {
            when = Time(clock.futureEdge(now().tick, 1), eps::kPipeline);
        }
        schedule(event, when);
    }

    /** Schedules a one-shot callable on this component's partition. */
    template <typename F>
    void
    schedule(Time time, F&& fn)
    {
        simulator_->scheduleFor(partition_, time, std::forward<F>(fn));
    }

    /** Schedules `(this->*Handler)(payload)` at @p time through the
     *  simulator's pooled inline-event path — the allocation-free way to
     *  defer a delivery that carries a small payload. Handler must be a
     *  member of this component's most-derived type. */
    template <auto Handler, typename P>
    void
    scheduleInline(Time time, P payload)
    {
        using C =
            typename detail::MemberFnTraits<decltype(Handler)>::Class;
        simulator_->scheduleInlineFor<Handler>(
            partition_, static_cast<C*>(this), payload, time);
    }

    /** Cancels a pending caller-owned event (see Simulator::cancel()). */
    bool cancel(Event* event) { return simulator_->cancel(event); }

    /** Per-component debug switch; dbg() prints when enabled. */
    void setDebug(bool on) { debug_ = on; }
    bool debugEnabled() const { return debug_ || simulator_->debug(); }

    template <typename... Args>
    void
    dbg(Args&&... args) const
    {
        if (debugEnabled()) {
            informStr(strf("[", now().toString(), "] ", fullName_, ": ",
                           strf(std::forward<Args>(args)...)));
        }
    }

  private:
    Simulator* simulator_;
    std::string name_;
    std::string fullName_;
    Random random_;
    std::uint32_t partition_;
    bool debug_ = false;
};

}  // namespace ss

#endif  // SS_CORE_COMPONENT_H_
