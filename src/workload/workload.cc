#include "workload/workload.h"

#include <utility>

#include "json/settings.h"
#include "workload/application.h"

namespace ss {

const char*
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::kWarming: return "warming";
      case Phase::kGenerating: return "generating";
      case Phase::kFinishing: return "finishing";
      case Phase::kDraining: return "draining";
    }
    return "?";
}

Workload::Workload(Simulator* simulator, const std::string& name,
                   const Component* parent, Network* network,
                   const json::Value& settings)
    : Component(simulator, name, parent), network_(network)
{
    checkUser(settings.has("applications"),
              "workload needs an 'applications' array");
    const json::Value& apps = settings.at("applications");
    checkUser(apps.isArray() && apps.size() > 0,
              "'applications' must be a non-empty array");

    rateMonitor_.resize(network->numInterfaces());
    samplerShards_.resize(simulator->numShards());
    rateShards_.assign(simulator->numShards(),
                       RateMonitor(network->numInterfaces()));
    network->setEjectMonitor([this](const Message* message) {
        rateShards_[this->simulator()->currentShard()].recordFlit(
            message->source());
    });

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const json::Value& app_settings = apps.at(i);
        std::string type = json::getString(app_settings, "type");
        applications_.emplace_back(ApplicationFactory::instance().create(
            type, simulator, strf("app_", i), this, this,
            static_cast<std::uint32_t>(i), app_settings));
    }
    ready_.resize(applications_.size(), false);
    complete_.resize(applications_.size(), false);
    done_.resize(applications_.size(), false);

    if (settings.has("message_log")) {
        log_ = std::make_unique<TransactionLog>(
            json::getString(settings, "message_log"));
    }
}

Workload::~Workload() = default;

std::uint32_t
Workload::numApplications() const
{
    return static_cast<std::uint32_t>(applications_.size());
}

Application*
Workload::application(std::uint32_t id) const
{
    checkSim(id < applications_.size(), "application id out of range");
    return applications_[id].get();
}

void
Workload::applicationReady(std::uint32_t app_id)
{
    checkSim(phase_ == Phase::kWarming, "Ready signal outside warming");
    checkSim(app_id < ready_.size(), "bad app id");
    checkSim(!ready_[app_id], "duplicate Ready from app ", app_id);
    ready_[app_id] = true;
    dbg("app ", app_id, " ready");
    advanceIfUniform();
}

void
Workload::applicationComplete(std::uint32_t app_id)
{
    checkSim(phase_ == Phase::kGenerating,
             "Complete signal outside generating");
    checkSim(!complete_[app_id], "duplicate Complete from app ", app_id);
    complete_[app_id] = true;
    dbg("app ", app_id, " complete");
    advanceIfUniform();
}

void
Workload::applicationDone(std::uint32_t app_id)
{
    checkSim(phase_ == Phase::kFinishing, "Done signal outside finishing");
    checkSim(!done_[app_id], "duplicate Done from app ", app_id);
    done_[app_id] = true;
    dbg("app ", app_id, " done");
    advanceIfUniform();
}

void
Workload::advanceIfUniform()
{
    auto all = [](const std::vector<bool>& v) {
        for (bool b : v) {
            if (!b) {
                return false;
            }
        }
        return true;
    };

    switch (phase_) {
      case Phase::kWarming:
        if (all(ready_)) {
            // Simultaneous Start to all applications.
            phase_ = Phase::kGenerating;
            generateStart_ = now().tick;
            rateMonitor_.start(generateStart_);
            for (auto& shard : rateShards_) {
                shard.start(generateStart_);
            }
            dbg("-> generating");
            for (auto& app : applications_) {
                app->start();
            }
        }
        break;
      case Phase::kGenerating:
        if (all(complete_)) {
            phase_ = Phase::kFinishing;
            generateStop_ = now().tick;
            rateMonitor_.stop(generateStop_);
            for (auto& shard : rateShards_) {
                shard.stop(generateStop_);
            }
            dbg("-> finishing");
            for (auto& app : applications_) {
                app->stop();
            }
        }
        break;
      case Phase::kFinishing:
        if (all(done_)) {
            phase_ = Phase::kDraining;
            dbg("-> draining");
            for (auto& app : applications_) {
                app->kill();
            }
        }
        break;
      case Phase::kDraining:
        break;
    }
}

void
Workload::recordDelivered(const Message* message)
{
    if (!message->sampled()) {
        return;
    }
    MessageSample sample;
    sample.id = message->id();
    sample.app = message->appId();
    sample.source = message->source();
    sample.destination = message->destination();
    sample.createTick = message->createTime().tick;
    sample.injectTick = message->packet(0)->injectTime().tick;
    sample.deliverTick = message->deliverTime().tick;
    sample.flits = message->totalFlits();
    sample.packets = message->numPackets();
    sample.hops = message->maxHopCount();
    sample.minHops =
        network_->minimalHops(message->source(), message->destination());
    sample.nonminimal = message->tookNonminimal();
    // Worker threads buffer into their partition's shard; the log is
    // written from finalize() in shard order.
    samplerShards_[simulator()->currentShard()].record(sample);
}

void
Workload::finalize()
{
    if (finalized_) {
        return;
    }
    finalized_ = true;
    if (samplerShards_.size() == 1) {
        // A serial run's one shard becomes the sampler without a copy.
        // Partitioned runs copy into a fresh sampler: adopting the first
        // shard's buffer and growing it raised the peak RSS of repeated
        // in-process runs.
        sampler_ = std::move(samplerShards_[0]);
    } else {
        for (const LatencySampler& shard : samplerShards_) {
            for (const MessageSample& sample : shard.samples()) {
                sampler_.record(sample);
            }
        }
    }
    for (LatencySampler& shard : samplerShards_) {
        shard = LatencySampler();
    }
    if (log_) {
        for (const MessageSample& sample : sampler_.samples()) {
            log_->write(sample);
        }
    }
    for (auto& shard : rateShards_) {
        rateMonitor_.merge(shard);
    }
}

}  // namespace ss
