/**
 * @file
 * Age-based arbiter: the oldest request (lowest metadata value) wins.
 * Known to fix the bandwidth unfairness of round-robin arbitration in the
 * parking-lot scenario (paper §IV-B; Abts & Weisser, SC'07).
 */
#ifndef SS_ARBITER_AGE_ARBITER_H_
#define SS_ARBITER_AGE_ARBITER_H_

#include <vector>

#include "arbiter/arbiter.h"

namespace ss {

/** Oldest-first arbitration; ties broken round-robin. */
class AgeArbiter : public Arbiter {
  public:
    AgeArbiter(Simulator* simulator, const std::string& name,
               const Component* parent, std::uint32_t size,
               const json::Value& settings);

    void grant(std::uint32_t winner) override;

  protected:
    std::uint32_t select() override;

  private:
    std::uint32_t next_ = 0;  // round-robin tiebreak pointer
    std::vector<std::uint64_t> ages_;  // per-client metadata (metadata_)
};

}  // namespace ss

#endif  // SS_ARBITER_AGE_ARBITER_H_
