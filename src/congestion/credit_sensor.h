/**
 * @file
 * The standard credit-counting congestion sensor.
 *
 * Settings (JSON):
 *   "latency":      uint ticks — how long a credit event takes to become
 *                   visible to routing (paper §VI-A; default 0)
 *   "granularity":  "vc" | "port" — per-VC status or the sum across the
 *                   port's VCs (paper §VI-B; default "vc")
 *   "pools":        "output" | "downstream" | "both" — which credit pools
 *                   are counted (paper §VI-B; default "downstream")
 *   "mode":         "absolute" | "normalized" — raw occupied-slot count or
 *                   occupancy fraction of capacity (default "absolute";
 *                   normalized requires finite capacities)
 */
#ifndef SS_CONGESTION_CREDIT_SENSOR_H_
#define SS_CONGESTION_CREDIT_SENSOR_H_

#include <vector>

#include "congestion/congestion_sensor.h"
#include "types/ring_queue.h"

namespace ss {

/** Credit-based sensor with delayed visibility and accounting styles. */
class CreditSensor : public CongestionSensor {
  public:
    CreditSensor(Simulator* simulator, const std::string& name,
                 const Component* parent, std::uint32_t num_ports,
                 std::uint32_t num_vcs, const json::Value& settings);

    void initCapacity(std::uint32_t port, std::uint32_t vc,
                      CreditPool pool, std::uint32_t capacity) override;
    void creditEvent(std::uint32_t port, std::uint32_t vc, CreditPool pool,
                     std::int32_t delta) override;
    double status(std::uint32_t port, std::uint32_t vc) const override;

    /** The true (undelayed) occupancy — exposed for tests/instrumentation,
     *  never used by routing. */
    double actualStatus(std::uint32_t port, std::uint32_t vc) const;

    Tick latency() const { return latency_; }

    /** Ring slots held for delayed updates — grows with the number of
     *  apply ticks pending at once, never with the latency (tests). */
    std::size_t pendingSlots() const { return pending_.capacity(); }

  private:
    std::size_t
    index(std::uint32_t port, std::uint32_t vc) const
    {
        return static_cast<std::size_t>(port) * numVcs_ + vc;
    }

    double poolStatus(const std::vector<std::int64_t>& occupied0,
                      const std::vector<std::int64_t>& occupied1,
                      std::uint32_t port, std::uint32_t vc) const;

    /** One not-yet-visible occupancy change. */
    struct PendingUpdate {
        std::uint32_t pool;
        std::uint32_t index;
        std::int32_t delta;
    };

    /** The not-yet-visible updates that become visible at one tick. */
    struct PendingBatch {
        Tick tick = 0;
        std::vector<PendingUpdate> updates;
    };

    /** The batch that collects updates visible at @p apply, opening a
     *  new one (and scheduling its event) when @p apply is new. */
    std::vector<PendingUpdate>& batchFor(Tick apply);
    void applyPending();

    Tick latency_;
    bool perPort_;        // granularity == "port"
    bool countOutput_;    // pools includes output queues
    bool countDownstream_;
    bool normalized_;

    // [pool][port*numVcs+vc]
    std::vector<std::int64_t> actual_[2];
    std::vector<std::int64_t> visible_[2];
    std::vector<std::int64_t> capacity_[2];

    // Delayed-visibility machinery: updates are batched per apply tick
    // so the event count stays one per tick, not one per credit event.
    // Apply ticks (now + latency) never decrease, so the batches form a
    // FIFO whose recycled slots keep their vectors' capacity. The ring
    // grows only with the number of batches pending at once, never with
    // the latency itself.
    RingQueue<PendingBatch> pending_;
};

}  // namespace ss

#endif  // SS_CONGESTION_CREDIT_SENSOR_H_
