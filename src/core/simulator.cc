#include "core/simulator.h"

#include <algorithm>
#include <limits>

#include "core/component.h"
#include "core/logging.h"

namespace ss {

namespace {
constexpr Tick kNoTick = std::numeric_limits<Tick>::max();
}  // namespace

Simulator::Simulator(std::uint64_t seed) : seed_(seed)
{
    queues_.push_back(std::make_unique<PartitionQueue>());
    queues_[0]->buckets.resize(kDefaultHorizon);
    queues_[0]->occupancy.assign((kDefaultHorizon + 63) / 64, 0);
}

Simulator::~Simulator()
{
    stopWorkers();
    if (tlsCtx_.sim == this) {
        tlsCtx_ = ExecCtx{};
    }
    // Delete the callback wrappers of unexecuted events. Caller-owned
    // events must not be touched here: components are destroyed before
    // the simulator when a run stops at its time limit with work still
    // queued, so those pointers may already be dead.
    auto release = [](const QueueEntry& entry) {
        if (entry.kind() == EntryKind::kCallback) {
            delete entry.event();
        }
    };
    for (auto& queue : queues_) {
        PartitionQueue& q = *queue;
        for (Bucket& bucket : q.buckets) {
            for (std::size_t e = 0; e < kNumLanes; ++e) {
                const std::vector<QueueEntry>& lane = bucket.lanes[e];
                for (std::size_t i = bucket.heads[e]; i < lane.size();
                     ++i) {
                    release(lane[i]);
                }
            }
        }
        for (; !q.overflow.empty(); q.overflow.pop()) {
            release(q.overflow.top().entry);
        }
        for (const OutItem& item : q.outbox) {
            release(item.entry);
        }
        for (const OutItem& item : q.controlOutbox) {
            release(item.entry);
        }
    }
}

Time
Simulator::fallbackNow() const
{
    // No execution context on this thread (build time, or after run()):
    // report the most advanced queue. Serial mode has one queue.
    Time latest = queues_[0]->now;
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        if (latest < queues_[i]->now) {
            latest = queues_[i]->now;
        }
    }
    return latest;
}

void
Simulator::requestParallel(std::uint32_t threads, std::uint32_t partitions)
{
    checkUser(threads >= 1, "simulator.threads must be >= 1");
    checkSim(numPartitions_ == 0,
             "requestParallel after partitions were set up");
    parallelRequested_ = true;
    threadsRequested_ = threads;
    partitionsRequested_ = partitions;
}

void
Simulator::setupPartitions(std::uint32_t count)
{
    checkSim(parallelRequested_,
             "setupPartitions without requestParallel");
    checkSim(numPartitions_ == 0, "setupPartitions called twice");
    checkSim(count >= 1, "partition count must be >= 1");
    PartitionQueue& q0 = *queues_[0];
    checkSim(q0.liveCount == 0 && q0.overflow.empty() && q0.sequence == 0,
             "partitions can only be set up before any event is scheduled");
    queues_.clear();
    for (std::uint32_t i = 0; i < count + 1; ++i) {
        auto q = std::make_unique<PartitionQueue>();
        q->numBuckets = horizonConfig_;
        q->bucketMask = horizonConfig_ - 1;
        q->buckets.resize(horizonConfig_);
        q->occupancy.assign((horizonConfig_ + 63) / 64, 0);
        queues_.push_back(std::move(q));
    }
    numPartitions_ = count;
    controlIndex_ = count;
    numThreads_ = std::min(threadsRequested_, count);
    if (numThreads_ < 1) {
        numThreads_ = 1;
    }
}

void
Simulator::checkSchedulable(std::uint32_t partition, Time time)
{
    // Checked before a callback wrapper is allocated, so the fatal path
    // leaks nothing.
    if (time.epsilon >= kNumLanes) [[unlikely]] {
        fatal("epsilon ", static_cast<unsigned>(time.epsilon),
              " out of range: the engine supports epsilon 0..",
              kNumLanes - 1);
    }
    const std::uint32_t target = resolveTarget(partition);
    const ExecCtx& ctx = tlsCtx_;
    if (ctx.sim == this && ctx.index == target) [[likely]] {
        // Local schedule: the strict per-queue (tick, epsilon) past check,
        // exactly the serial engine's behavior.
        if (time < ctx.queue->now) [[unlikely]] {
            panic("scheduling event in the past: ", time.toString(),
                  " < ", ctx.queue->now.toString());
        }
        return;
    }
    if (ctx.sim == this && ctx.index != controlIndex_) {
        // Worker-context cross-partition schedule.
        if (target != controlIndex_ && time.tick <= barrierTick_)
            [[unlikely]] {
            fatal("cross-partition schedule at tick ", time.tick,
                  " does not clear the barrier tick ", barrierTick_,
                  ": no lookahead — partitions exchange events only "
                  "over channels with latency >= 1 tick");
        }
        if (time.tick < barrierTick_) [[unlikely]] {
            panic("scheduling event in the past: ", time.toString(),
                  " < barrier tick ", barrierTick_);
        }
        return;
    }
    // Serial phase (control context, or no context at build time):
    // workers are parked, direct enqueue into any queue is safe. The
    // past check is tick-granular against the barrier: same-tick control
    // -> worker schedules re-enter the fixpoint.
    const Tick floor = running_ ? barrierTick_ : 0;
    if (time.tick < floor ||
        (!running_ && time < queues_[target]->now)) [[unlikely]] {
        panic("scheduling event in the past: ", time.toString(), " < ",
              queues_[target]->now.toString());
    }
    checkSim(!(inFinalSweep_ && target != controlIndex_ &&
               time.tick == barrierTick_),
             "stats-phase event scheduled same-tick partition work");
}

void
Simulator::bucketInsert(PartitionQueue& q, Tick tick, const QueueEntry& entry)
{
    std::size_t b = tick & q.bucketMask;
    Bucket& bucket = q.buckets[b];
    std::size_t lane_index = entry.lane();
    std::vector<QueueEntry>& lane = bucket.lanes[lane_index];
    if (!lane.empty() && lane.back().key > entry.key) [[unlikely]] {
        // Only overflow migration appends behind newer sequences (a
        // same-tick entry was scheduled directly into the bucket while
        // this one still sat in the overflow heap); restore sequence
        // order within the lane's unconsumed suffix.
        auto pos = std::upper_bound(
            lane.begin() +
                static_cast<std::ptrdiff_t>(bucket.heads[lane_index]),
            lane.end(), entry,
            [](const QueueEntry& a, const QueueEntry& b2) {
                return a.key < b2.key;
            });
        lane.insert(pos, entry);
    } else {
        lane.push_back(entry);
    }
    q.occupancy[b >> 6] |= 1ULL << (b & 63);
    ++bucket.live;
    ++q.bucketedCount;
}

void
Simulator::pushEntry(PartitionQueue& q, Tick tick, const QueueEntry& entry)
{
    // The window invariant (windowBase <= now <= tick) makes the
    // subtraction safe and gives each bucket at most one distinct tick.
    if (tick - q.windowBase < q.numBuckets) [[likely]] {
        bucketInsert(q, tick, entry);
    } else {
        q.overflow.push(OverflowEntry{tick, entry});
    }
    ++q.liveCount;
    q.foregroundPending +=
        static_cast<std::uint64_t>(!entry.background());
    if (q.liveCount > q.peakQueueDepth) {
        q.peakQueueDepth = q.liveCount;
    }
}

Tick
Simulator::nextBucketTick(const PartitionQueue& q) const
{
    // Circular scan of the occupancy bitmap starting at windowBase's
    // slot; bucketedCount > 0 guarantees a set bit. Bits at or past the
    // start resolve to windowBase + offset directly, wrapped bits to the
    // following ticks, via the modular offset.
    const std::size_t start = q.windowBase & q.bucketMask;
    const std::size_t words = q.occupancy.size();
    std::size_t w = start >> 6;
    std::uint64_t bits = q.occupancy[w] & (~0ULL << (start & 63));
    for (std::size_t scanned = 0;; ++scanned) {
        if (bits != 0) {
            std::size_t slot =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            return q.windowBase + ((slot - start) & q.bucketMask);
        }
        checkSim(scanned <= words, "event queue occupancy bitmap corrupt");
        w = (w + 1 == words) ? 0 : w + 1;
        bits = q.occupancy[w];
    }
}

Tick
Simulator::nextQueueTick(const PartitionQueue& q) const
{
    Tick tick = kNoTick;
    if (q.bucketedCount > 0) {
        tick = nextBucketTick(q);
    }
    if (!q.overflow.empty() && q.overflow.top().tick < tick) {
        tick = q.overflow.top().tick;
    }
    return tick;
}

Simulator::Bucket&
Simulator::materialize(PartitionQueue& q)
{
    // Positions windowBase on the earliest pending tick and returns its
    // (non-empty) bucket. Precondition: at least one event is queued.
    Tick bucket_tick = q.bucketedCount > 0 ? nextBucketTick(q) : kNoTick;
    if (!q.overflow.empty() && q.overflow.top().tick <= bucket_tick)
        [[unlikely]] {
        // The earliest pending work sits in the overflow heap: slide the
        // window forward to it and pull every overflow event that now
        // fits the horizon into the buckets. Entries keep their original
        // keys, so migrated and directly-bucketed events interleave in
        // exact (tick, epsilon, sequence) order.
        q.windowBase = q.overflow.top().tick;
        while (!q.overflow.empty() &&
               q.overflow.top().tick - q.windowBase < q.numBuckets) {
            bucketInsert(q, q.overflow.top().tick, q.overflow.top().entry);
            q.overflow.pop();
        }
        bucket_tick = nextBucketTick(q);
    }
    q.windowBase = bucket_tick;
    return q.buckets[bucket_tick & q.bucketMask];
}

Simulator::Bucket*
Simulator::tickBucket(PartitionQueue& q, Tick tick)
{
    // The barrier tick is the earliest pending tick of every queue
    // (see run()), and checkSchedulable() keeps new events at or
    // after it. So when no overflow event is due, a set occupancy bit at
    // the tick's slot inside the window can only mean that tick: one bit
    // test instead of a scan.
    if (!q.overflow.empty() && q.overflow.top().tick <= tick) [[unlikely]] {
        return &materialize(q);
    }
    const std::size_t slot = tick & q.bucketMask;
    if (tick - q.windowBase >= q.numBuckets ||
        (q.occupancy[slot >> 6] & (1ULL << (slot & 63))) == 0) {
        return nullptr;
    }
    q.windowBase = tick;
    return &q.buckets[slot];
}

void
Simulator::enqueueDirect(PartitionQueue& q, std::uint32_t index, Tick tick,
                         QueueEntry& entry)
{
    entry.key |= q.sequence++ << kSeqShift;
    if (entry.kind() == EntryKind::kExternal) {
        Event* event = entry.event();
        event->schedKey_ = entry.key;
        event->schedQueue_ = index;
    }
    pushEntry(q, tick, entry);
}

void
Simulator::routeEntry(std::uint32_t target, Time time, EntryKind kind,
                      bool background, QueueEntry& entry)
{
    entry.key = static_cast<std::uint64_t>(time.epsilon) << kEpsilonShift |
                (background ? kBackgroundFlag : 0) |
                static_cast<std::uint64_t>(kind);
    const ExecCtx& ctx = tlsCtx_;
    if (ctx.sim == this && ctx.index == target) [[likely]] {
        enqueueDirect(*ctx.queue, target, time.tick, entry);
        return;
    }
    if (ctx.sim == this && ctx.index != controlIndex_) {
        // Worker context scheduling off-partition: park the entry in the
        // source partition's mailbox; the barrier commits mailboxes in
        // partition order, assigning destination sequences
        // deterministically.
        if (kind == EntryKind::kExternal) {
            entry.event()->schedQueue_ = kOutboxed;
        }
        std::vector<OutItem>& box = target == controlIndex_
                                        ? ctx.queue->controlOutbox
                                        : ctx.queue->outbox;
        box.push_back(OutItem{time.tick, target, entry});
        return;
    }
    // Serial phase: workers are parked, enqueue straight into the target.
    enqueueDirect(*queues_[target], target, time.tick, entry);
}

void
Simulator::scheduleFor(std::uint32_t partition, Event* event, Time time,
                       bool background)
{
    // Hot path: keep the failure messages out of the fast path (string
    // construction per call would dominate the simulation).
    if (event == nullptr || event->pending()) [[unlikely]] {
        checkSim(event != nullptr, "scheduling null event");
        checkSim(!event->pending(), "event is already pending at ",
                 event->time().toString());
    }
    checkSchedulable(partition, time);
    event->time_ = time;
    event->schedBackground_ = background;
    QueueEntry entry;
    entry.fn = [](void* storage) {
        Event* event;
        std::memcpy(&event, storage, sizeof(event));
        event->process();
    };
    std::memcpy(entry.storage, &event, sizeof(event));
    routeEntry(resolveTarget(partition), time, EntryKind::kExternal,
               background, entry);
}

void
Simulator::scheduleCallback(std::uint32_t partition, Time time,
                            std::function<void()> fn)
{
    checkSchedulable(partition, time);
    Event* event = new CallbackEvent(std::move(fn));
    PartitionQueue& q = tlsCtx_.sim == this ? *tlsCtx_.queue
                                            : *queues_[controlIndex_];
    ++q.callbackAllocated;
    QueueEntry entry;
    entry.fn = [](void* storage) {
        Event* event;
        std::memcpy(&event, storage, sizeof(event));
        std::unique_ptr<Event> owner(event);
        event->process();
    };
    std::memcpy(entry.storage, &event, sizeof(event));
    routeEntry(resolveTarget(partition), time, EntryKind::kCallback, false,
               entry);
}

bool
Simulator::cancel(Event* event)
{
    if (event == nullptr || !event->pending()) {
        return false;
    }
    checkSim(event->schedQueue_ != kOutboxed,
             "cannot cancel an event parked in a cross-partition mailbox");
    checkSim(!running_ || tlsCtx_.sim != this ||
                 tlsCtx_.index == event->schedQueue_ ||
                 tlsCtx_.index == controlIndex_,
             "cannot cancel another partition's pending event");
    // Lazy removal: invalidate the event; its queue slot becomes a
    // tombstone (recognized by key/time mismatch) that the executer
    // skips when its time comes around.
    event->time_ = Time::invalid();
    PartitionQueue& q = *queues_[event->schedQueue_];
    --q.liveCount;
    q.foregroundPending -=
        static_cast<std::uint64_t>(!event->schedBackground_);
    return true;
}

void
Simulator::releaseBucket(PartitionQueue& q, Bucket& bucket, Tick tick)
{
    for (std::size_t lane = 0; lane < kNumLanes; ++lane) {
        bucket.lanes[lane].clear();
        bucket.heads[lane] = 0;
    }
    std::size_t b = tick & q.bucketMask;
    q.occupancy[b >> 6] &= ~(1ULL << (b & 63));
}

[[gnu::always_inline]] inline bool
Simulator::execute(PartitionQueue& q, QueueEntry& entry, Tick tick)
{
    if (entry.kind() == EntryKind::kExternal) {
        Event* event = entry.event();
        if (event->schedKey_ != entry.key || !event->time_.valid())
            [[unlikely]] {
            return false;  // cancelled tombstone — already discounted
        }
        event->time_ = Time::invalid();
    }
    --q.liveCount;
    q.foregroundPending -= static_cast<std::uint64_t>(!entry.background());
    q.now = Time(tick, static_cast<Epsilon>(entry.lane()));
    entry.fn(entry.storage);
    ++q.eventsExecuted;
    return true;
}

[[gnu::always_inline]] inline std::uint64_t
Simulator::drainTick(PartitionQueue& q, Tick tick, std::size_t max_lane)
{
    Bucket* bucket = tickBucket(q, tick);
    if (bucket == nullptr) {
        return 0;
    }
    // Without worker partitions the run ends as soon as no foreground
    // event is pending, even mid-tick: same-tick background samples after
    // the last foreground event stay queued. With workers, every tick
    // drains completely.
    const bool stop_when_idle = numPartitions_ == 0;
    std::uint64_t executed = 0;
    do {
        // Lowest non-empty lane at or below max_lane; lanes above it
        // (stats samples) wait for the final sweep of this tick.
        std::size_t e = 0;
        while (bucket->heads[e] >= bucket->lanes[e].size()) {
            if (++e > max_lane) {
                checkSim(max_lane + 1 < kNumLanes,
                         "bucket live count corrupt");
                return executed;
            }
        }
        QueueEntry entry = bucket->lanes[e][bucket->heads[e]++];
        --bucket->live;
        --q.bucketedCount;
        if (bucket->live == 0) {
            releaseBucket(q, *bucket, tick);
        }
        executed += execute(q, entry, tick);
    } while (bucket->live > 0 && (q.foregroundPending > 0 || !stop_when_idle));
    return executed;
}

std::uint64_t
Simulator::run()
{
    checkSim(!running_, "Simulator::run() is not reentrant");
    if (parallelRequested_ && numPartitions_ == 0) {
        // Nothing set partitions up (no network in this simulation):
        // fall back to one partition per requested thread.
        setupPartitions(partitionsRequested_ > 0 ? partitionsRequested_
                                                 : threadsRequested_);
    }
    running_ = true;
    if (workers_.empty() && numThreads_ > 1) {
        spawnWorkers();
    }
    PartitionQueue& control = *queues_[controlIndex_];
    tlsCtx_ = ExecCtx{this, &control, controlIndex_};
    const std::uint64_t start_count = eventsExecuted();
    const auto wall_start = std::chrono::steady_clock::now();
    heartbeatWall_ = wall_start;
    heartbeatEvents_ = start_count;
    // Barrier-synchronous loop: pick the globally earliest tick, run a
    // fixpoint of {worker phase, control phase} over that tick, take the
    // stats samples, then commit the channel mailboxes for future ticks.
    // Run while *foreground* work remains; background events (periodic
    // observability samples) execute in time order alongside but never
    // keep the simulation alive on their own. A serial run has no worker
    // partitions, so each of its ticks is one control drain.
    for (;;) {
        std::uint64_t foreground = control.foregroundPending;
        Tick tick = nextQueueTick(control);
        for (std::uint32_t p = 0; p < numPartitions_; ++p) {
            const PartitionQueue& q = *queues_[p];
            foreground += q.foregroundPending;
            tick = std::min(tick, nextQueueTick(q));
        }
        if (foreground == 0) {
            break;
        }
        checkSim(tick != kNoTick, "foreground accounting corrupt");
        if (timeLimit_ > 0 && tick > timeLimit_) [[unlikely]] {
            timeLimitHit_ = true;
            break;
        }
        barrierTick_ = tick;
        if (numPartitions_ == 0) {
            drainTick(control, tick);
        } else {
            // Fixpoint: control events may schedule same-tick partition
            // work (application start commands) and workers may notify
            // the control plane same-tick through their mailboxes, so
            // alternate until the tick is quiet. The control phase holds
            // back its stats lanes (epsilon > kControl) so re-entering
            // the tick never regresses the control queue past a stats
            // sample.
            std::uint64_t moved = 1;
            while (moved > 0) {
                moved = runWorkerPhase(tick);
                moved += commitControlOutboxes();
                moved += drainTick(control, tick, eps::kControl);
            }
            // The tick is quiet below the stats lanes: the final sweep
            // takes the stats samples with every partition parked.
            inFinalSweep_ = true;
            drainTick(control, tick);
            inFinalSweep_ = false;
            // Commit cross-partition channel deliveries (strictly future
            // ticks) in partition order — the deterministic merge.
            commitOutboxes();
        }
        if (heartbeatSeconds_ > 0 && (++barrierCount_ & 0x3ff) == 0)
            [[unlikely]] {
            maybeHeartbeat();
        }
    }
    tlsCtx_ = ExecCtx{};
    const std::uint64_t executed = eventsExecuted() - start_count;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    runWallSeconds_ += seconds;
    lastRunEventRate_ =
        seconds > 0.0 ? static_cast<double>(executed) / seconds : 0.0;
    running_ = false;
    return executed;
}

std::uint64_t
Simulator::runWorkerPhase(Tick tick)
{
    if (numThreads_ == 1) {
        // Single-threaded partitioned mode: drain partitions in order on
        // this thread — identical results by construction, no pool.
        std::uint64_t executed = 0;
        for (std::uint32_t p = 0; p < numPartitions_; ++p) {
            tlsCtx_ = ExecCtx{this, queues_[p].get(), p};
            executed += drainTick(*queues_[p], tick);
        }
        tlsCtx_ = ExecCtx{this, queues_[controlIndex_].get(),
                          controlIndex_};
        return executed;
    }
    roundExecuted_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        poolTick_ = tick;
        poolRemaining_ = numThreads_ - 1;
        ++poolGeneration_;
    }
    poolStart_.notify_all();
    // The main thread doubles as worker 0.
    std::uint64_t executed = 0;
    for (std::uint32_t p = 0; p < numPartitions_; p += numThreads_) {
        tlsCtx_ = ExecCtx{this, queues_[p].get(), p};
        executed += drainTick(*queues_[p], tick);
    }
    tlsCtx_ = ExecCtx{this, queues_[controlIndex_].get(), controlIndex_};
    roundExecuted_.fetch_add(executed, std::memory_order_relaxed);
    {
        std::unique_lock<std::mutex> lock(poolMutex_);
        poolDone_.wait(lock, [this] { return poolRemaining_ == 0; });
    }
    rethrowWorkerError();
    return roundExecuted_.load(std::memory_order_relaxed);
}

std::uint64_t
Simulator::commitControlOutboxes()
{
    PartitionQueue& control = *queues_[controlIndex_];
    std::uint64_t moved = 0;
    for (std::uint32_t src = 0; src < numPartitions_; ++src) {
        std::vector<OutItem>& box = queues_[src]->controlOutbox;
        for (OutItem& item : box) {
            enqueueDirect(control, controlIndex_, item.tick, item.entry);
        }
        moved += box.size();
        box.clear();
    }
    return moved;
}

void
Simulator::commitOutboxes()
{
    for (std::uint32_t src = 0; src < numPartitions_; ++src) {
        std::vector<OutItem>& box = queues_[src]->outbox;
        for (OutItem& item : box) {
            enqueueDirect(*queues_[item.target], item.target, item.tick,
                          item.entry);
        }
        box.clear();
    }
}

void
Simulator::spawnWorkers()
{
    workerErrors_.assign(numThreads_, nullptr);
    for (std::uint32_t w = 1; w < numThreads_; ++w) {
        workers_.emplace_back([this, w] { workerLoop(w); });
    }
}

void
Simulator::stopWorkers()
{
    if (workers_.empty()) {
        return;
    }
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        poolStop_ = true;
    }
    poolStart_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
    workers_.clear();
}

void
Simulator::workerLoop(std::uint32_t worker)
{
    std::uint64_t generation = 0;
    for (;;) {
        Tick tick;
        {
            std::unique_lock<std::mutex> lock(poolMutex_);
            poolStart_.wait(lock, [this, generation] {
                return poolStop_ || poolGeneration_ != generation;
            });
            if (poolStop_) {
                return;
            }
            generation = poolGeneration_;
            tick = poolTick_;
        }
        std::uint64_t executed = 0;
        try {
            for (std::uint32_t p = worker; p < numPartitions_;
                 p += numThreads_) {
                tlsCtx_ = ExecCtx{this, queues_[p].get(), p};
                executed += drainTick(*queues_[p], tick);
            }
        } catch (...) {
            workerErrors_[worker] = std::current_exception();
        }
        tlsCtx_ = ExecCtx{};
        roundExecuted_.fetch_add(executed, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(poolMutex_);
            if (--poolRemaining_ == 0) {
                poolDone_.notify_one();
            }
        }
    }
}

void
Simulator::rethrowWorkerError()
{
    for (std::exception_ptr& error : workerErrors_) {
        if (error) {
            std::exception_ptr first = error;
            for (std::exception_ptr& e : workerErrors_) {
                e = nullptr;
            }
            std::rethrow_exception(first);
        }
    }
}

std::uint64_t
Simulator::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto& q : queues_) {
        total += q->eventsExecuted;
    }
    return total;
}

std::size_t
Simulator::eventsPending() const
{
    std::size_t total = 0;
    for (const auto& q : queues_) {
        total += q->liveCount + q->outbox.size() + q->controlOutbox.size();
    }
    return total;
}

std::size_t
Simulator::callbackEventsAllocated() const
{
    std::size_t total = 0;
    for (const auto& q : queues_) {
        total += q->callbackAllocated;
    }
    return total;
}

std::size_t
Simulator::peakQueueDepth() const
{
    std::size_t total = 0;
    for (const auto& q : queues_) {
        total += q->peakQueueDepth;
    }
    return total;
}

void
Simulator::setSchedulerHorizon(std::size_t buckets)
{
    checkUser(buckets > 0 && (buckets & (buckets - 1)) == 0 &&
                  buckets <= (std::size_t{1} << 20),
              "scheduler horizon must be a power of two in [1, 2^20]");
    horizonConfig_ = buckets;
    for (auto& queue : queues_) {
        PartitionQueue& q = *queue;
        checkUser(q.liveCount == 0 && q.bucketedCount == 0 &&
                      q.overflow.empty(),
                  "scheduler horizon can only change while the queue is "
                  "empty");
        q.numBuckets = buckets;
        q.bucketMask = buckets - 1;
        q.buckets.assign(buckets, {});
        q.occupancy.assign((buckets + 63) / 64, 0);
    }
}

void
Simulator::maybeHeartbeat()
{
    auto wall = std::chrono::steady_clock::now();
    double elapsed =
        std::chrono::duration<double>(wall - heartbeatWall_).count();
    if (elapsed < heartbeatSeconds_) {
        return;
    }
    const std::uint64_t executed = eventsExecuted();
    double rate =
        static_cast<double>(executed - heartbeatEvents_) / elapsed;
    inform("progress: tick ", now().tick, ", ", executed, " events (",
           static_cast<std::uint64_t>(rate), " events/s), queue depth ",
           eventsPending());
    heartbeatWall_ = wall;
    heartbeatEvents_ = executed;
}

std::uint64_t
Simulator::componentSeed(const std::string& full_name) const
{
    // splitmix64 over (root seed ^ FNV-1a of name) gives well-separated,
    // deterministic per-component streams.
    std::uint64_t hash = 14695981039346656037ULL;
    for (char c : full_name) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    std::uint64_t z = seed_ ^ hash;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Simulator::registerComponent(Component* component)
{
    auto [it, inserted] =
        components_.emplace(component->fullName(), component);
    (void)it;
    checkUser(inserted, "duplicate component name: ", component->fullName());
}

void
Simulator::unregisterComponent(Component* component)
{
    components_.erase(component->fullName());
}

Component*
Simulator::findComponent(const std::string& full_name) const
{
    auto it = components_.find(full_name);
    return it == components_.end() ? nullptr : it->second;
}

}  // namespace ss
