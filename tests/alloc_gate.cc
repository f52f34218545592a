/**
 * @file
 * Steady-state allocation gate: the simulation's steady state may heap-
 * allocate only for the messages it carries.
 *
 * This executable replaces the global allocation functions with counting
 * ones (which is why it is not part of supersim_tests), runs partitioned
 * simulations to a midpoint tick, and then counts every `operator new`
 * over an equally long second half, during which Blast is still in its
 * generating phase.
 *
 * The bound, per message delivered in that second half: a message costs
 * one allocation for the Message, one for its packet array and one flit
 * array per packet — 2 + P allocations with P packets per message;
 * events live in the queue slots, and congestion-sensor batches,
 * message-registry slots and routing scratch are all recycled. On top of that the stats buffers
 * (latency samples, rate counts) grow geometrically, which amortizes to
 * O(log n) reallocations; kGrowthAllowance per message covers that with
 * room to spare. Created and delivered counts differ only by the change
 * in messages in flight, which kInFlightAllowance covers. The
 * configurations stay far from saturation, so that change is small.
 *
 *     alloc_gate     # gtest binary; exit status 0 when every bound holds
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "json/json.h"
#include "core/simulator.h"
#include "sim/builder.h"
#include "types/credit.h"
#include "workload/application.h"
#include "workload/terminal.h"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void*
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ss {
namespace {

constexpr double kGrowthAllowance = 0.05;
constexpr std::uint64_t kInFlightAllowance = 64;
constexpr Tick kHalf = 5000;

std::uint64_t
messagesDelivered(Simulation& simulation)
{
    std::uint64_t total = 0;
    Workload* workload = simulation.workload();
    for (std::uint32_t a = 0; a < workload->numApplications(); ++a) {
        Application* app = workload->application(a);
        for (std::uint32_t t = 0; t < app->numTerminals(); ++t) {
            total += app->terminal(t)->messagesReceived();
        }
    }
    return total;
}

/** Runs @p config_text for two halves of kHalf ticks and checks the
 *  second half's allocations against the per-message bound, where each
 *  message has @p packets packets. */
void
expectSteadyStateBound(const char* config_text, std::uint64_t packets)
{
    Simulation simulation(json::parse(config_text));
    Simulator* sim = simulation.simulator();
    ASSERT_TRUE(sim->isParallel());
    sim->setTimeLimit(kHalf);
    sim->run();
    ASSERT_EQ(simulation.workload()->phase(), Phase::kGenerating);
    const std::uint64_t delivered0 = messagesDelivered(simulation);
    const std::uint64_t allocations0 =
        gAllocations.load(std::memory_order_relaxed);

    sim->setTimeLimit(2 * kHalf);
    sim->run();
    const std::uint64_t allocations =
        gAllocations.load(std::memory_order_relaxed) - allocations0;
    ASSERT_EQ(simulation.workload()->phase(), Phase::kGenerating);
    const std::uint64_t delivered =
        messagesDelivered(simulation) - delivered0;

    const double per_message = static_cast<double>(2 + packets);
    const double bound =
        static_cast<double>(delivered + kInFlightAllowance) *
        (per_message + kGrowthAllowance);
    std::printf("%llu messages delivered, %llu allocations (%.3f per "
                "message, bound %.0f)\n",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(allocations),
                delivered > 0 ? static_cast<double>(allocations) /
                                    static_cast<double>(delivered)
                              : 0.0,
                bound);
    EXPECT_GT(delivered, 1000u);
    EXPECT_LE(static_cast<double>(allocations), bound);
}

TEST(AllocGate, HyperXWithLatencyOneSensor)
{
    // Two-packet messages (4 flits, packets of at most 2): 4 allocations
    // per message.
    expectSteadyStateBound(R"({
        "simulator": {"seed": 1, "threads": 1, "partitions": 3},
        "network": {
            "topology": "hyperx", "widths": [3, 3], "concentration": 2,
            "num_vcs": 2, "clock_period": 1, "channel_latency": 4,
            "router": {
                "architecture": "input_queued", "input_buffer_size": 16,
                "congestion_sensor": {"type": "credit", "latency": 1,
                                      "pools": "downstream"}},
            "routing": {"algorithm": "hyperx_ugal"}},
        "workload": {"applications": [{
            "type": "blast", "injection_rate": 0.3, "message_size": 4,
            "max_packet_size": 2, "warmup_duration": 500,
            "sample_duration": 100000,
            "traffic": {"type": "uniform_random"}}]}})",
                           2);
}

TEST(AllocGate, OutputQueuedClos)
{
    // One-packet messages: 3 allocations per message. Two threads, so
    // the mailbox commits run with a parked worker pool.
    expectSteadyStateBound(R"({
        "simulator": {"seed": 1, "threads": 2, "partitions": 4},
        "network": {
            "topology": "folded_clos", "half_radix": 2, "levels": 3,
            "num_vcs": 1, "clock_period": 1, "channel_latency": 10,
            "router": {
                "architecture": "output_queued", "input_buffer_size": 40,
                "output_buffer_size": 16, "core_latency": 5,
                "congestion_sensor": {"type": "credit", "latency": 8,
                                      "pools": "output"}},
            "routing": {"algorithm": "folded_clos_adaptive"}},
        "workload": {"applications": [{
            "type": "blast", "injection_rate": 0.4, "message_size": 2,
            "warmup_duration": 500, "sample_duration": 100000,
            "traffic": {"type": "uniform_random"}}]}})",
                           1);
}

struct CreditCounter {
    std::uint64_t sum = 0;
    void take(Credit credit) { sum += credit.vc + credit.count; }
};

/** Schedules one round of slot events — 24-byte closures and inline
 *  Credit deliveries — over ticks [first, first + 16) and runs it. */
void
slotRound(Simulator& sim, CreditCounter& counter, std::uint64_t& closures,
          Tick first)
{
    for (Tick t = first; t < first + 16; ++t) {
        for (std::uint32_t i = 0; i < 8; ++i) {
            sim.scheduleInline<&CreditCounter::take>(&counter, Credit{i, 1},
                                                     Time(t, 0));
            auto closure = [c = &closures, t, i = std::uint64_t{i}]() {
                *c += t + i;
            };
            static_assert(sizeof(closure) == 24);
            sim.schedule(Time(t, 1), closure);
        }
    }
    sim.run();
}

TEST(AllocGate, SlotEventsAllocateNothing)
{
    // Warm-up rounds grow the bucket lanes and the overflow heap (each
    // round after the first starts a horizon after the previous one, so
    // its last tick lands just past the window); the same pattern one
    // horizon later must then reuse them and allocate nothing.
    Simulator sim;
    CreditCounter counter;
    std::uint64_t closures = 0;
    const Tick horizon = sim.schedulerHorizon();
    slotRound(sim, counter, closures, 1);
    slotRound(sim, counter, closures, 1 + horizon);
    const std::uint64_t allocations0 =
        gAllocations.load(std::memory_order_relaxed);
    slotRound(sim, counter, closures, 1 + 2 * horizon);
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed) - allocations0,
              0u);
    EXPECT_EQ(sim.eventsExecuted(), 3u * 16 * 8 * 2);
    EXPECT_GT(counter.sum, 0u);
    EXPECT_GT(closures, 0u);
}

}  // namespace
}  // namespace ss
