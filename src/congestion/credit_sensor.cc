#include "congestion/credit_sensor.h"

#include "json/settings.h"

namespace ss {

CreditSensor::CreditSensor(Simulator* simulator, const std::string& name,
                           const Component* parent, std::uint32_t num_ports,
                           std::uint32_t num_vcs,
                           const json::Value& settings)
    : CongestionSensor(simulator, name, parent, num_ports, num_vcs)
{
    latency_ = json::getUint(settings, "latency", 0);
    std::string granularity =
        json::getString(settings, "granularity", "vc");
    checkUser(granularity == "vc" || granularity == "port",
              "sensor granularity must be 'vc' or 'port', got '",
              granularity, "'");
    perPort_ = granularity == "port";

    std::string pools = json::getString(settings, "pools", "downstream");
    checkUser(pools == "output" || pools == "downstream" || pools == "both",
              "sensor pools must be 'output', 'downstream' or 'both', ",
              "got '", pools, "'");
    countOutput_ = pools == "output" || pools == "both";
    countDownstream_ = pools == "downstream" || pools == "both";

    std::string mode = json::getString(settings, "mode", "absolute");
    checkUser(mode == "absolute" || mode == "normalized",
              "sensor mode must be 'absolute' or 'normalized', got '",
              mode, "'");
    normalized_ = mode == "normalized";

    std::size_t slots = static_cast<std::size_t>(num_ports) * num_vcs;
    for (int pool = 0; pool < 2; ++pool) {
        actual_[pool].assign(slots, 0);
        visible_[pool].assign(slots, 0);
        capacity_[pool].assign(slots, 0);
    }
}

void
CreditSensor::initCapacity(std::uint32_t port, std::uint32_t vc,
                           CreditPool pool, std::uint32_t capacity)
{
    checkSim(port < numPorts_ && vc < numVcs_, "sensor init out of range");
    capacity_[static_cast<int>(pool)][index(port, vc)] = capacity;
}

void
CreditSensor::creditEvent(std::uint32_t port, std::uint32_t vc,
                          CreditPool pool, std::int32_t delta)
{
    checkSim(port < numPorts_ && vc < numVcs_, "sensor event out of range");
    int p = static_cast<int>(pool);
    std::size_t i = index(port, vc);
    actual_[p][i] += delta;
    checkSim(actual_[p][i] >= 0, "sensor occupancy went negative");
    std::int64_t cap = capacity_[p][i];
    checkSim(cap == 0 || actual_[p][i] <= cap,
             "sensor occupancy ", actual_[p][i], " exceeds capacity ", cap);

    if (latency_ == 0) {
        visible_[p][i] += delta;
    } else {
        // The change becomes visible to routing only after the
        // propagation delay (latent congestion detection, §VI-A).
        // Updates landing on the same tick share one event.
        batchFor(now().tick + latency_)
            .push_back(PendingUpdate{static_cast<std::uint32_t>(p),
                                     static_cast<std::uint32_t>(i), delta});
    }
}

std::vector<CreditSensor::PendingUpdate>&
CreditSensor::batchFor(Tick apply)
{
    if (!pending_.empty()) {
        PendingBatch& last = pending_.back();
        if (last.tick == apply) {
            return last.updates;
        }
        checkSim(last.tick < apply,
                 "sensor pending-update bookkeeping broke");
    }
    PendingBatch& batch = pending_.pushSlot();
    batch.tick = apply;
    batch.updates.clear();
    schedule(Time(apply, eps::kSensor), [this]() { applyPending(); });
    return batch.updates;
}

void
CreditSensor::applyPending()
{
    checkSim(!pending_.empty() && pending_.front().tick == now().tick,
             "sensor pending-update bookkeeping broke");
    for (const auto& update : pending_.front().updates) {
        visible_[update.pool][update.index] += update.delta;
    }
    pending_.pop_front();
}

double
CreditSensor::poolStatus(const std::vector<std::int64_t>& pool_output,
                         const std::vector<std::int64_t>& pool_downstream,
                         std::uint32_t port, std::uint32_t vc) const
{
    auto gather = [&](const std::vector<std::int64_t>& occ,
                      const std::vector<std::int64_t>& cap) -> double {
        if (perPort_) {
            std::int64_t occupied = 0;
            std::int64_t capacity = 0;
            for (std::uint32_t v = 0; v < numVcs_; ++v) {
                occupied += occ[index(port, v)];
                capacity += cap[index(port, v)];
            }
            if (normalized_) {
                return capacity > 0
                           ? static_cast<double>(occupied) / capacity
                           : 0.0;
            }
            return static_cast<double>(occupied);
        }
        if (normalized_) {
            std::int64_t c = cap[index(port, vc)];
            return c > 0 ? static_cast<double>(occ[index(port, vc)]) / c
                         : 0.0;
        }
        return static_cast<double>(occ[index(port, vc)]);
    };

    double result = 0.0;
    if (countOutput_) {
        result += gather(pool_output,
                         capacity_[static_cast<int>(CreditPool::kOutputQueue)]);
    }
    if (countDownstream_) {
        result += gather(pool_downstream,
                         capacity_[static_cast<int>(CreditPool::kDownstream)]);
    }
    return result;
}

double
CreditSensor::status(std::uint32_t port, std::uint32_t vc) const
{
    checkSim(port < numPorts_ && vc < numVcs_, "sensor query out of range");
    return poolStatus(
               visible_[static_cast<int>(CreditPool::kOutputQueue)],
               visible_[static_cast<int>(CreditPool::kDownstream)],
               port, vc) +
           faultBias(port);
}

double
CreditSensor::actualStatus(std::uint32_t port, std::uint32_t vc) const
{
    checkSim(port < numPorts_ && vc < numVcs_, "sensor query out of range");
    return poolStatus(
        actual_[static_cast<int>(CreditPool::kOutputQueue)],
        actual_[static_cast<int>(CreditPool::kDownstream)], port, vc);
}

SS_REGISTER(CongestionSensorFactory, "credit", CreditSensor);

}  // namespace ss
