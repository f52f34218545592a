/**
 * @file
 * The discrete event simulation engine (paper §III-A, Figure 1).
 *
 * The simulator owns the event queues and the executer loop. Events are
 * ordered by (tick, epsilon, insertion order); the insertion-order
 * tiebreak makes execution fully deterministic. The simulation ends when
 * the event queue runs out of foreground events (or an optional time
 * limit is hit).
 *
 * Each queue is two-level (see DESIGN.md "Event core"): a circular array
 * of per-tick buckets covers a short horizon ahead of the current tick —
 * where virtually all flit/credit/pipeline scheduling lands — and a
 * binary heap holds far-future overflow. Each bucket keeps one FIFO lane
 * per epsilon: within a (tick, epsilon) lane insertion order *is*
 * sequence order, so both insert and pop are O(1) with no comparisons.
 * A queue slot is the event itself: a 40-byte entry of ordering key,
 * trampoline and 24 bytes of storage holding a payload delivery, a small
 * closure's captures, or the pointer of a caller-owned event. So
 * steady-state scheduling performs no heap allocation, and a delivery or
 * closure runs with one indirect call.
 *
 * One run loop drains every simulation (DESIGN.md §7). A serial run has
 * a single control queue and no worker partitions. Partitioned parallel
 * execution (DESIGN.md §9), when requested, shards components across P
 * worker partitions, each with its own two-level queue and sequence
 * counter, beside the control partition for the workload/observability
 * plane. Partitions drain one tick at a time under a barrier;
 * Channel/CreditChannel edges (latency >= 1 tick — the lookahead) are the
 * only cross-partition schedules and travel through per-partition
 * mailboxes committed in fixed partition order at the tick boundary.
 * Per-partition sequences plus ordered commits make the result
 * independent of the worker-thread count: `--threads N` is byte-identical
 * to `--threads 1`.
 *
 * There are no global singletons: a Simulator instance owns an entire
 * simulation, so many simulations can run concurrently in one process.
 */
#ifndef SS_CORE_SIMULATOR_H_
#define SS_CORE_SIMULATOR_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "core/time.h"
#include "obs/metrics.h"
#include "rng/random.h"

namespace ss {

namespace obs {
class TraceWriter;
}

namespace power {
class PowerModel;
}

class Component;

namespace detail {
/** Extracts the class and parameter of a `void (C::*)(P)` handler. */
template <typename F>
struct MemberFnTraits;
template <typename C, typename P>
struct MemberFnTraits<void (C::*)(P)> {
    using Class = C;
    using Param = P;
};

/** scheduleInline()'s slot storage: the object and its payload. */
template <typename C, typename P>
struct InlineSlot {
    C* object;
    P payload;
};

// Queue-slot trampolines. Free functions, not lambdas inside Simulator,
// so a profile charges each to the handler or closure it inlines.

/** Runs the `(object->*Handler)(payload)` held in a queue slot. */
template <auto Handler>
void
invokeSlotHandler(void* storage)
{
    using Traits = MemberFnTraits<decltype(Handler)>;
    auto* slot = static_cast<
        InlineSlot<typename Traits::Class, typename Traits::Param>*>(
        storage);
    (slot->object->*Handler)(slot->payload);
}

/** Runs the closure whose captures a queue slot holds. */
template <typename Fn>
void
invokeSlotClosure(void* storage)
{
    (*static_cast<Fn*>(storage))();
}
}  // namespace detail

/** The DES engine: per-partition two-level event queues + executer. */
class Simulator {
  public:
    /** Partition value meaning "not pinned": such components (workload
     *  control plane, observability) execute on the control partition. */
    static constexpr std::uint32_t kAutoPartition = 0xffffffffu;

    /** @param seed root seed from which all component streams derive. */
    explicit Simulator(std::uint64_t seed = 12345);
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulation time (of the executing partition's queue). */
    Time
    now() const
    {
        const ExecCtx& ctx = tlsCtx_;
        return ctx.sim == this ? ctx.queue->now : fallbackNow();
    }

    // ----- partitioned parallel execution -----

    /** Requests the partitioned executer with @p threads worker threads.
     *  @p partitions picks the partition count (0 = automatic, derived
     *  from the topology by the Partitioner). Must be called before the
     *  network is built; partitioning is derived only from the topology,
     *  never from the thread count, so any thread count yields identical
     *  results. */
    void requestParallel(std::uint32_t threads, std::uint32_t partitions);
    bool parallelRequested() const { return parallelRequested_; }
    std::uint32_t requestedPartitions() const { return partitionsRequested_; }
    std::uint32_t requestedThreads() const { return threadsRequested_; }

    /** Creates the per-partition queues (called once, by the network,
     *  after the Partitioner picked a count; only legal while the event
     *  queue is empty). Queue layout: [0, count) worker partitions plus
     *  one control partition at index count. */
    void setupPartitions(std::uint32_t count);

    /** True once worker partitions exist; a serial run has none. */
    bool isParallel() const { return numPartitions_ > 0; }
    std::uint32_t numWorkerPartitions() const { return numPartitions_; }

    /** Stable shard indexing for per-partition stats/trace buffers:
     *  worker partitions are shards [0, P), the control partition is
     *  shard P. Serial mode has a single shard, 0. */
    std::uint32_t numShards() const { return numPartitions_ + 1; }
    std::uint32_t controlShard() const { return controlIndex_; }
    std::uint32_t
    currentShard() const
    {
        const ExecCtx& ctx = tlsCtx_;
        return ctx.sim == this ? ctx.index : controlIndex_;
    }

    /** Build-time partition cursor: components constructed while the
     *  cursor is set inherit its partition (the network sets it around
     *  router construction so routers' children land with them). */
    void setBuildPartition(std::uint32_t partition)
    {
        buildPartition_ = partition;
    }
    std::uint32_t buildPartition() const { return buildPartition_; }

    /** Schedules @p event at @p time. The event must not already be
     *  pending and @p time must not be in the past. The caller retains
     *  ownership; the event may be rescheduled after it fires.
     *
     *  A @p background event does not keep the simulation alive: run()
     *  stops once only background events remain queued (observability
     *  sampling uses this so periodic collection never extends a run). */
    void
    schedule(Event* event, Time time, bool background = false)
    {
        scheduleFor(kAutoPartition, event, time, background);
    }

    /** Partition-pinned variant: the event executes on @p partition's
     *  queue (kAutoPartition / out-of-range = control). Cross-partition
     *  schedules from a worker context route through mailboxes and must
     *  target a strictly future tick (the channel-latency lookahead). */
    void scheduleFor(std::uint32_t partition, Event* event, Time time,
                     bool background = false);

    /** Schedules a one-shot callable at @p time. A trivially copyable
     *  callable of at most kEntryStorage bytes is stored in the queue
     *  slot itself: no allocation. Anything else falls back to a
     *  heap-allocated std::function wrapper, deleted after it runs. */
    template <typename F>
    std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>
    schedule(Time time, F&& fn)
    {
        scheduleFor(kAutoPartition, time, std::forward<F>(fn));
    }

    template <typename F>
    std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>
    scheduleFor(std::uint32_t partition, Time time, F&& fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn> &&
                      sizeof(Fn) <= kEntryStorage &&
                      alignof(Fn) <= alignof(std::uint64_t)) {
            checkSchedulable(partition, time);
            QueueEntry entry;
            entry.fn = &detail::invokeSlotClosure<Fn>;
            ::new (static_cast<void*>(entry.storage))
                Fn(std::forward<F>(fn));
            routeEntry(resolveTarget(partition), time, EntryKind::kInline,
                       false, entry);
        } else {
            scheduleCallback(partition, time,
                             std::function<void()>(std::forward<F>(fn)));
        }
    }

    /** Schedules `(object->*Handler)(payload)` at @p time — the
     *  allocation-free fast path for per-occurrence deliveries: object
     *  and payload ride in the queue slot itself. The payload must be
     *  trivially copyable and fit kEntryStorage beside the object
     *  pointer (16 bytes). */
    template <auto Handler>
    void
    scheduleInline(
        typename detail::MemberFnTraits<decltype(Handler)>::Class* object,
        typename detail::MemberFnTraits<decltype(Handler)>::Param payload,
        Time time)
    {
        scheduleInlineFor<Handler>(kAutoPartition, object, payload, time);
    }

    template <auto Handler>
    void
    scheduleInlineFor(
        std::uint32_t partition,
        typename detail::MemberFnTraits<decltype(Handler)>::Class* object,
        typename detail::MemberFnTraits<decltype(Handler)>::Param payload,
        Time time)
    {
        using Traits = detail::MemberFnTraits<decltype(Handler)>;
        using Slot = detail::InlineSlot<typename Traits::Class,
                                        typename Traits::Param>;
        static_assert(std::is_trivially_copyable_v<typename Traits::Param>,
                      "inline event payloads must be trivially copyable");
        static_assert(sizeof(Slot) <= kEntryStorage &&
                          alignof(Slot) <= alignof(std::uint64_t),
                      "inline event payload too large");
        checkSchedulable(partition, time);
        QueueEntry entry;
        entry.fn = &detail::invokeSlotHandler<Handler>;
        ::new (static_cast<void*>(entry.storage)) Slot{object, payload};
        routeEntry(resolveTarget(partition), time, EntryKind::kInline, false,
                   entry);
    }

    /** Removes a pending caller-owned event from the queue before it
     *  fires; returns false if the event was not pending. Cancellation is
     *  lazy: the queue slot becomes a tombstone that the executer skips,
     *  so the Event object must stay alive until its scheduled time has
     *  been drained (or the simulator destroyed). The event may be
     *  rescheduled immediately. Only the owning partition may cancel;
     *  events sitting in a cross-partition mailbox cannot be cancelled. */
    bool cancel(Event* event);

    /** Runs the executer until the event queue is empty or the time limit
     *  is exceeded. Returns the number of events executed by this call. */
    std::uint64_t run();

    /** Sets a tick limit: run() stops before executing any event with
     *  tick > limit. 0 disables (default). Remaining events stay queued;
     *  timeLimitHit() reports whether the limit triggered. */
    void setTimeLimit(Tick limit) { timeLimit_ = limit; }
    bool timeLimitHit() const { return timeLimitHit_; }

    /** Resizes the bucketed short-horizon queues to @p buckets per-tick
     *  slots (power of two). Larger horizons keep more of the schedule
     *  out of the overflow heap; the default (64) comfortably covers
     *  channel/crossbar latencies and clock periods. Only legal while the
     *  event queue is empty. */
    void setSchedulerHorizon(std::size_t buckets);
    std::size_t schedulerHorizon() const { return horizonConfig_; }

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t eventsExecuted() const;

    /** Number of events currently queued (excluding cancelled
     *  tombstones). */
    std::size_t eventsPending() const;

    /** Always 0: closures and payload deliveries live in the queue
     *  slots, so the engine has no wrapper events to allocate. Kept for
     *  tools that report it. */
    std::size_t pooledEventsAllocated() const { return 0; }
    /** CallbackEvent wrappers allocated so far, one per closure too big
     *  or not trivially copyable enough for a queue slot. */
    std::size_t callbackEventsAllocated() const;

    /** Root seed for this simulation. */
    std::uint64_t seed() const { return seed_; }

    /** Returns a deterministic seed for a named component, derived from
     *  the root seed and the component's full name. */
    std::uint64_t componentSeed(const std::string& full_name) const;

    /** Component registry — names must be unique within a simulation. */
    void registerComponent(Component* component);
    void unregisterComponent(Component* component);
    Component* findComponent(const std::string& full_name) const;
    std::size_t numComponents() const { return components_.size(); }

    /** Global debug printing switch (per-component switches also exist). */
    void setDebug(bool on) { debug_ = on; }
    bool debug() const { return debug_; }

    // ----- observability -----

    /** The per-simulation instrument registry (always present; cheap
     *  when unused). */
    obs::MetricsRegistry& metrics() { return metrics_; }
    const obs::MetricsRegistry& metrics() const { return metrics_; }

    /** Master observability switch. Components consult this at
     *  construction time to decide whether to create instruments; when
     *  off, their cached instrument pointers stay null and the hot paths
     *  pay a single branch each. */
    void setObservabilityEnabled(bool on) { obsEnabled_ = on; }
    bool observabilityEnabled() const { return obsEnabled_; }

    /** Trace sink for timeline spans, or nullptr (the default). The
     *  caller retains ownership and must keep it alive through run(). */
    void setTraceWriter(obs::TraceWriter* writer) { trace_ = writer; }
    obs::TraceWriter* traceWriter() const { return trace_; }

    /** Activity-counter energy model, or nullptr (the default).
     *  Routers/channels/interfaces consult this at construction time to
     *  register; when null their cached counter pointers stay null and
     *  the hot paths pay a single branch each. The caller retains
     *  ownership and must keep it alive past every component. */
    void setPowerModel(power::PowerModel* model) { power_ = model; }
    power::PowerModel* powerModel() const { return power_; }

    /** Enables a wall-clock progress heartbeat: run() inform()s current
     *  tick, events/sec, and queue depth roughly every @p seconds of
     *  real time. 0 disables (default). */
    void setHeartbeatSeconds(double seconds) { heartbeatSeconds_ = seconds; }
    double heartbeatSeconds() const { return heartbeatSeconds_; }

    // ----- engine counters (observability + RunResult) -----

    /** Wall-clock seconds spent inside run() over the simulator's
     *  lifetime. */
    double runWallSeconds() const { return runWallSeconds_; }
    /** Events per wall-clock second of the most recent run() call. */
    double lastRunEventRate() const { return lastRunEventRate_; }
    /** Largest event-queue depth ever observed (summed per-partition
     *  peaks in parallel mode — thread-count invariant). */
    std::size_t peakQueueDepth() const;

  private:
    /** What the storage of a queue slot holds. */
    enum class EntryKind : std::uint8_t {
        kExternal = 0,  ///< Event* of a caller-owned event; supports cancel()
        kCallback = 1,  ///< Event* of a CallbackEvent, deleted after it runs
        kInline = 2,    ///< a closure's captures or an {object, payload}
    };

    /** Key layout: epsilon << 56 | sequence << 3 | background << 2 |
     *  kind. Keys compare in (epsilon, sequence) order because sequences
     *  are unique per queue; the low bits never decide a comparison. */
    static constexpr unsigned kEpsilonShift = 56;
    static constexpr unsigned kSeqShift = 3;
    static constexpr std::uint64_t kKindMask = 0x3;
    static constexpr std::uint64_t kBackgroundFlag = 0x4;
    static constexpr std::size_t kDefaultHorizon = 64;
    /** FIFO lanes per bucket, one per epsilon. Epsilon is a small
     *  scheduling class (eps::kDelivery .. eps::kStats plus headroom),
     *  so the engine supports epsilon values 0..kNumLanes-1. */
    static constexpr std::size_t kNumLanes = 8;
    /** Bytes of a queue slot that hold the event itself. */
    static constexpr std::size_t kEntryStorage = 24;

    using Trampoline = void (*)(void* storage);

    /** One queue slot, which is also the event: `fn(storage)` runs it.
     *  The tick is implied by the bucket holding the slot (the overflow
     *  heap and the mailboxes store it beside the slot), so ordering
     *  within a tick is `key` alone — the deterministic
     *  (tick, epsilon, insertion order) total order. */
    struct QueueEntry {
        std::uint64_t key;
        Trampoline fn;
        alignas(std::uint64_t) unsigned char storage[kEntryStorage];

        EntryKind kind() const
        {
            return static_cast<EntryKind>(key & kKindMask);
        }
        bool background() const { return (key & kBackgroundFlag) != 0; }
        std::size_t lane() const { return key >> kEpsilonShift; }
        /** The event behind a kExternal or kCallback slot. */
        Event*
        event() const
        {
            Event* event;
            std::memcpy(&event, storage, sizeof(event));
            return event;
        }
    };
    static_assert(sizeof(QueueEntry) == 40,
                  "a queue slot is a key, a trampoline and 24 bytes");

    /** A far-future slot in the overflow heap, with its tick. */
    struct OverflowEntry {
        Tick tick;
        QueueEntry entry;
    };

    struct OverflowGreater {
        bool
        operator()(const OverflowEntry& a, const OverflowEntry& b) const
        {
            return a.tick != b.tick ? a.tick > b.tick
                                    : a.entry.key > b.entry.key;
        }
    };

    /** One per-tick bucket: a FIFO lane per epsilon. Within a (tick,
     *  epsilon) lane, insertion order is sequence order — the partition's
     *  sequence counter is monotone — so draining lanes in epsilon order
     *  yields the exact (tick, epsilon, sequence) total order with no
     *  comparisons or heap maintenance. `heads` tracks the consumed
     *  prefix of each lane; lanes reset (keeping capacity) when the
     *  bucket empties. */
    struct Bucket {
        std::array<std::vector<QueueEntry>, kNumLanes> lanes;
        std::array<std::size_t, kNumLanes> heads{};
        std::size_t live = 0;
    };

    /** A cross-partition schedule parked in a mailbox until the tick
     *  boundary (channel edges) or the next control phase (workload
     *  notifications). The entry's key holds epsilon and flags; the
     *  commit adds the destination's sequence. */
    struct OutItem {
        Tick tick;
        std::uint32_t target;
        QueueEntry entry;
    };

    /** One partition's event queue: the two-level design plus its own
     *  sequence counter and outgoing mailboxes. Padded to a cache line so
     *  neighbors don't false-share. */
    struct alignas(64) PartitionQueue {
        std::uint64_t sequence = 0;
        Time now{0, 0};
        std::uint64_t eventsExecuted = 0;
        std::uint64_t foregroundPending = 0;

        std::size_t numBuckets = kDefaultHorizon;
        std::size_t bucketMask = kDefaultHorizon - 1;
        Tick windowBase = 0;
        std::vector<Bucket> buckets;
        std::vector<std::uint64_t> occupancy;
        std::size_t bucketedCount = 0;
        std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                            OverflowGreater>
            overflow;
        std::size_t liveCount = 0;

        std::size_t callbackAllocated = 0;
        std::size_t peakQueueDepth = 0;

        /** Mailboxes: events this partition scheduled onto other
         *  partitions, committed in partition order at the barrier. */
        std::vector<OutItem> outbox;
        std::vector<OutItem> controlOutbox;
    };

    /** Per-thread execution context: which queue the current thread is
     *  draining. Scheduling calls consult it to route locally, through a
     *  mailbox, or directly (serial phases). */
    struct ExecCtx {
        Simulator* sim;
        PartitionQueue* queue;
        std::uint32_t index;
    };
    inline static thread_local ExecCtx tlsCtx_{nullptr, nullptr, 0};

    /** schedQueue_ sentinel while an event sits in a mailbox. */
    static constexpr std::uint32_t kOutboxed = 0xfffffffeu;

    Time fallbackNow() const;
    std::uint32_t
    resolveTarget(std::uint32_t partition) const
    {
        return partition < numPartitions_ ? partition : controlIndex_;
    }
    void checkSchedulable(std::uint32_t partition, Time time);
    /** Sets @p entry's epsilon and flags and queues it on partition
     *  @p target: directly, or through the scheduling partition's
     *  mailbox. */
    void routeEntry(std::uint32_t target, Time time, EntryKind kind,
                    bool background, QueueEntry& entry);
    /** Gives @p entry @p q's next sequence and pushes it. */
    void enqueueDirect(PartitionQueue& q, std::uint32_t index, Tick tick,
                       QueueEntry& entry);
    void scheduleCallback(std::uint32_t partition, Time time,
                          std::function<void()> fn);
    void pushEntry(PartitionQueue& q, Tick tick, const QueueEntry& entry);
    void bucketInsert(PartitionQueue& q, Tick tick, const QueueEntry& entry);
    Tick nextBucketTick(const PartitionQueue& q) const;
    Tick nextQueueTick(const PartitionQueue& q) const;
    Bucket& materialize(PartitionQueue& q);
    /** @p q's bucket for the barrier @p tick with the window moved onto
     *  it, or nullptr when @p q has nothing at that tick. */
    Bucket* tickBucket(PartitionQueue& q, Tick tick);
    /** Empties a drained bucket's lanes and clears its occupancy bit. */
    void releaseBucket(PartitionQueue& q, Bucket& bucket, Tick tick);
    /** The one event-execution step of every run loop: runs @p entry,
     *  just popped from @p q's bucket for @p tick, unless it is a
     *  cancelled tombstone. Returns whether it ran. */
    bool execute(PartitionQueue& q, QueueEntry& entry, Tick tick);
    /** Runs @p q's events at the barrier @p tick in lanes up to
     *  @p max_lane; returns how many ran. */
    std::uint64_t drainTick(PartitionQueue& q, Tick tick,
                            std::size_t max_lane = kNumLanes - 1);
    std::uint64_t runWorkerPhase(Tick tick);
    std::uint64_t commitControlOutboxes();
    void commitOutboxes();
    void spawnWorkers();
    void stopWorkers();
    void workerLoop(std::uint32_t worker);
    void rethrowWorkerError();
    void maybeHeartbeat();

    std::uint64_t seed_;
    std::uint64_t timeLimit_ = 0;
    bool timeLimitHit_ = false;
    bool running_ = false;
    bool debug_ = false;
    bool obsEnabled_ = false;

    // Partitioned execution state. Serial mode has no worker partitions:
    // the single queue queues_[0] is the control queue.
    bool parallelRequested_ = false;
    std::uint32_t threadsRequested_ = 1;
    std::uint32_t partitionsRequested_ = 0;
    std::uint32_t numPartitions_ = 0;
    std::uint32_t controlIndex_ = 0;
    std::uint32_t numThreads_ = 1;
    std::uint32_t buildPartition_ = kAutoPartition;
    Tick barrierTick_ = 0;
    bool inFinalSweep_ = false;
    std::size_t horizonConfig_ = kDefaultHorizon;
    std::vector<std::unique_ptr<PartitionQueue>> queues_;

    // Worker pool (spawned lazily at the first parallel run()): a
    // generation-counted mutex/condvar barrier; the main thread doubles
    // as worker 0. The mutex hand-off orders every queue mutation of one
    // phase before the next, so serial control phases may touch any
    // partition's state directly.
    std::vector<std::thread> workers_;
    std::mutex poolMutex_;
    std::condition_variable poolStart_;
    std::condition_variable poolDone_;
    std::uint64_t poolGeneration_ = 0;
    std::uint32_t poolRemaining_ = 0;
    bool poolStop_ = false;
    Tick poolTick_ = 0;
    std::vector<std::exception_ptr> workerErrors_;
    std::atomic<std::uint64_t> roundExecuted_{0};

    std::unordered_map<std::string, Component*> components_;

    obs::MetricsRegistry metrics_;
    obs::TraceWriter* trace_ = nullptr;
    power::PowerModel* power_ = nullptr;

    double heartbeatSeconds_ = 0.0;
    std::chrono::steady_clock::time_point heartbeatWall_;
    std::uint64_t heartbeatEvents_ = 0;
    std::uint64_t barrierCount_ = 0;

    double runWallSeconds_ = 0.0;
    double lastRunEventRate_ = 0.0;
};

}  // namespace ss

#endif  // SS_CORE_SIMULATOR_H_
