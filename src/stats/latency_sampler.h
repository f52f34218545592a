/**
 * @file
 * Per-message sample records gathered during the sampling window, the
 * raw material of every latency analysis (paper §V). The same rows feed
 * the in-memory statistics, the transaction log writer, and (through the
 * log parser) the SSParse-equivalent analysis tooling.
 */
#ifndef SS_STATS_LATENCY_SAMPLER_H_
#define SS_STATS_LATENCY_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "stats/distribution.h"

namespace ss {

/** One delivered message's statistics row. */
struct MessageSample {
    std::uint64_t id = 0;
    std::uint32_t app = 0;
    std::uint32_t source = 0;
    std::uint32_t destination = 0;
    std::uint64_t createTick = 0;   ///< terminal created the message
    std::uint64_t injectTick = 0;   ///< first flit entered the network
    std::uint64_t deliverTick = 0;  ///< last flit reached the terminal
    std::uint32_t flits = 0;
    std::uint32_t packets = 0;
    std::uint32_t hops = 0;     ///< routers traversed (max over packets)
    std::uint32_t minHops = 0;  ///< minimal routers for this pair
    bool nonminimal = false;    ///< any packet took a non-minimal route

    /** End-to-end latency including source queueing. */
    std::uint64_t
    totalLatency() const
    {
        return deliverTick - createTick;
    }

    /** Network latency from first-flit injection to delivery. */
    std::uint64_t
    networkLatency() const
    {
        return deliverTick - injectTick;
    }
};

/** Accumulates message samples and derives distributions. */
class LatencySampler {
  public:
    void
    record(const MessageSample& sample)
    {
        samples_.push_back(sample);
    }

    const std::vector<MessageSample>& samples() const { return samples_; }
    std::size_t count() const { return samples_.size(); }

    /** Distribution of end-to-end message latencies. */
    Distribution totalLatencyDistribution() const;
    /** Distribution of network (inject-to-deliver) latencies. */
    Distribution networkLatencyDistribution() const;
    /** Distribution of hop counts. */
    Distribution hopDistribution() const;
    /** Fraction of sampled messages that took a non-minimal route. */
    double nonminimalFraction() const;

  private:
    std::vector<MessageSample> samples_;
};

}  // namespace ss

#endif  // SS_STATS_LATENCY_SAMPLER_H_
