/**
 * @file
 * The Workload: a state machine monitoring and controlling all
 * Applications through the four-phase handshake protocol of the paper
 * (§IV-A, Figure 4):
 *
 *   Warming    -- apps prepare; each sends Ready when warmed.
 *   Generating -- on all-Ready the Workload issues Start; apps generate
 *                 sampled traffic; each sends Complete when satisfied.
 *   Finishing  -- on all-Complete the Workload issues Stop; apps finish
 *                 rollover traffic; each sends Done when its sampled
 *                 traffic has drained.
 *   Draining   -- on all-Done the Workload issues Kill; no new traffic
 *                 may be generated, the event queue empties, and the
 *                 simulation ends.
 *
 * The Workload also owns the sampling-window instrumentation: the
 * latency sampler, the throughput monitor, and the optional transaction
 * log.
 */
#ifndef SS_WORKLOAD_WORKLOAD_H_
#define SS_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/component.h"
#include "json/json.h"
#include "network/network.h"
#include "stats/latency_sampler.h"
#include "stats/rate_monitor.h"
#include "stats/transaction_log.h"

namespace ss {

class Application;

/** The four execution phases (paper Figure 4). */
enum class Phase : std::uint8_t {
    kWarming,
    kGenerating,
    kFinishing,
    kDraining,
};

const char* phaseName(Phase phase);

/** Top-level workload controller. */
class Workload : public Component {
  public:
    /**
     * @param network  the network the workload drives
     * @param settings the JSON "workload" block:
     *   "applications": [ { "type": ..., ... }, ... ]
     *   "message_log":  optional path for the transaction log
     */
    Workload(Simulator* simulator, const std::string& name,
             const Component* parent, Network* network,
             const json::Value& settings);
    ~Workload() override;

    Network* network() const { return network_; }
    Phase phase() const { return phase_; }

    std::uint32_t numApplications() const;
    Application* application(std::uint32_t id) const;

    /** Next globally unique message id. */
    std::uint64_t nextMessageId() { return nextMessageId_++; }

    // ----- signals from applications (Figure 4 left-to-right arrows) ---
    void applicationReady(std::uint32_t app_id);
    void applicationComplete(std::uint32_t app_id);
    void applicationDone(std::uint32_t app_id);

    /** Records a delivered message; sampled messages enter the calling
     *  partition's shard, bound for the sampler and the log. */
    void recordDelivered(const Message* message);

    /** Merges the per-partition stat shards into the primary sampler,
     *  rate monitor, and transaction log, in shard order (worker
     *  partitions first, control last) — thread-count invariant — and
     *  frees the shards. Must be called after run(), before reading the
     *  accessors below; no-op on repeat calls. */
    void finalize();

    // ----- sampling-window instrumentation -----
    const LatencySampler& sampler() const { return sampler_; }
    const RateMonitor& rateMonitor() const { return rateMonitor_; }
    Tick generateStartTick() const { return generateStart_; }
    Tick generateStopTick() const { return generateStop_; }

  private:
    void advanceIfUniform();

    Network* network_;
    Phase phase_ = Phase::kWarming;
    std::uint64_t nextMessageId_ = 0;
    std::vector<std::unique_ptr<Application>> applications_;
    std::vector<bool> ready_;
    std::vector<bool> complete_;
    std::vector<bool> done_;
    Tick generateStart_ = 0;
    Tick generateStop_ = 0;

    LatencySampler sampler_;
    RateMonitor rateMonitor_;
    std::unique_ptr<TransactionLog> log_;

    /** Per-partition stat buffers (indexed by Simulator::currentShard();
     *  a serial run has one) so worker threads never touch shared
     *  collectors; finalize() folds them into the primaries above. */
    std::vector<LatencySampler> samplerShards_;
    std::vector<RateMonitor> rateShards_;
    bool finalized_ = false;
};

/** Factory of application models, keyed by the "type" setting. */
class ApplicationBaseTag;  // forward-name anchor for readability
using ApplicationFactory =
    Factory<Application, Simulator*, const std::string&, const Component*,
            Workload*, std::uint32_t, const json::Value&>;

}  // namespace ss

#endif  // SS_WORKLOAD_WORKLOAD_H_
