/**
 * @file
 * Events for the discrete event simulation core (paper §III-A, Figure 1).
 *
 * An event is a simple object with a time value indicating when it is to be
 * executed and a link to the code that performs the execution. Components
 * create events and push them into the simulator's two-level event queue.
 *
 * Three flavors exist, from hottest to most flexible:
 *  - InlineEvent<T[, Payload]>: embedded in the owning component and
 *    rescheduled repeatedly — a member-function pointer, no allocation
 *    ever (routers' pipeline/output events, interface injection). The
 *    queue slot holds its pointer.
 *  - Simulator::scheduleInline<Handler>(): no Event object at all — the
 *    queue slot itself holds the object pointer and a small trivially
 *    copyable payload, for per-occurrence deliveries with several in
 *    flight at once (channel hops, crossbar transfers).
 *  - Simulator::schedule(time, fn): one-shot closures. Trivially copyable
 *    captures of up to 24 bytes also live in the queue slot; anything
 *    else is wrapped in a CallbackEvent allocated per use. Control-path
 *    convenience, not for hot loops.
 */
#ifndef SS_CORE_EVENT_H_
#define SS_CORE_EVENT_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "core/time.h"

namespace ss {

class Simulator;

/** Abstract base for all events. */
class Event {
  public:
    Event() = default;
    virtual ~Event() = default;

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /** Executes the event. Called exactly once per scheduling by the
     *  simulator's executer. */
    virtual void process() = 0;

    /** The time this event is scheduled for; invalid() when not pending. */
    Time time() const { return time_; }

    /** True while the event sits in the event queue. */
    bool pending() const { return time_.valid(); }

  private:
    friend class Simulator;
    Time time_ = Time::invalid();
    /** Ordering key of the current scheduling — lets the executer
     *  recognize stale queue slots after Simulator::cancel() without
     *  eagerly searching the queue. */
    std::uint64_t schedKey_ = 0;
    /** Queue (partition) of the current scheduling, or the simulator's
     *  mailbox sentinel while the event crosses partitions. */
    std::uint32_t schedQueue_ = 0;
    bool schedBackground_ = false;
};

/** An event that invokes a bound callable. Simulator::schedule() wraps
 *  closures that do not fit a queue slot in one, owns it and deletes it
 *  after it runs; callers may also own and schedule one directly. */
class CallbackEvent : public Event {
  public:
    CallbackEvent() = default;
    explicit CallbackEvent(std::function<void()> fn) : fn_(std::move(fn)) {}

    void process() override { fn_(); }

  private:
    friend class Simulator;
    std::function<void()> fn_;
};

/**
 * The intrusive event: embedded as a member of the owning component and
 * rescheduled repeatedly, it binds a member-function pointer instead of a
 * heap-allocated std::function closure, so steady-state rescheduling
 * performs zero allocations. With a Payload type parameter the handler
 * receives a fixed bound value (e.g. an output port number) — one embedded
 * instance per port replaces a closure per occurrence in pipeline paths.
 */
template <typename T, typename Payload = void>
class InlineEvent;

template <typename T>
class InlineEvent<T, void> : public Event {
  public:
    using Handler = void (T::*)();

    InlineEvent() = default;
    InlineEvent(T* object, Handler handler)
        : object_(object), handler_(handler)
    {
    }

    void
    bind(T* object, Handler handler)
    {
        object_ = object;
        handler_ = handler;
    }

    void process() override { (object_->*handler_)(); }

  private:
    T* object_ = nullptr;
    Handler handler_ = nullptr;
};

template <typename T, typename Payload>
class InlineEvent : public Event {
  public:
    using Handler = void (T::*)(Payload);

    InlineEvent() = default;
    InlineEvent(T* object, Handler handler, Payload payload)
        : object_(object), handler_(handler), payload_(payload)
    {
    }

    void
    bind(T* object, Handler handler, Payload payload)
    {
        object_ = object;
        handler_ = handler;
        payload_ = payload;
    }

    const Payload& payload() const { return payload_; }

    void process() override { (object_->*handler_)(payload_); }

  private:
    T* object_ = nullptr;
    Handler handler_ = nullptr;
    Payload payload_{};
};

/** Compatibility alias — prefer InlineEvent<T> in new code. */
template <typename T>
using MemberEvent = InlineEvent<T>;

/** Compatibility alias — prefer InlineEvent<T, std::uint32_t>. */
template <typename T>
using IndexedMemberEvent = InlineEvent<T, std::uint32_t>;

}  // namespace ss

#endif  // SS_CORE_EVENT_H_
