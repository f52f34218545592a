/**
 * @file
 * Least-recently-used arbiter: the requester that was granted longest ago
 * wins.
 */
#ifndef SS_ARBITER_LRU_ARBITER_H_
#define SS_ARBITER_LRU_ARBITER_H_

#include <vector>

#include "arbiter/arbiter.h"

namespace ss {

/** LRU arbitration: grants rotate to the least recently served. */
class LruArbiter : public Arbiter {
  public:
    LruArbiter(Simulator* simulator, const std::string& name,
               const Component* parent, std::uint32_t size,
               const json::Value& settings);

    void grant(std::uint32_t winner) override;

  protected:
    std::uint32_t select() override;

  private:
    // Per client, when it was last granted (distinct; smaller = less
    // recent). Client i starts at i, so before any grant the lowest
    // index is least recent.
    std::vector<std::uint64_t> lastGrant_;
    std::uint64_t clock_;
};

}  // namespace ss

#endif  // SS_ARBITER_LRU_ARBITER_H_
