/**
 * @file
 * Arbiters: pick one winner among requesting clients (paper §IV-C).
 *
 * Arbiters are the innermost building block of allocators and schedulers.
 * A client posts a request (optionally with metadata such as packet age);
 * arbitrate() picks a winner according to the policy and clears all
 * requests. grant() tells stateful policies (round-robin, LRU) that the
 * winner actually used its grant — schedulers may withhold this when a
 * grant goes unused so fairness state doesn't advance spuriously.
 */
#ifndef SS_ARBITER_ARBITER_H_
#define SS_ARBITER_ARBITER_H_

#include <algorithm>
#include <cstdint>

#include "core/component.h"
#include "factory/factory.h"
#include "json/json.h"
#include "types/bitmask.h"

namespace ss {

/** Abstract base class for all arbiter policies. */
class Arbiter : public Component {
  public:
    /** Returned by arbitrate() when no client is requesting. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** @param size number of client positions */
    Arbiter(Simulator* simulator, const std::string& name,
            const Component* parent, std::uint32_t size);
    ~Arbiter() override = default;

    std::uint32_t size() const { return size_; }

    /** Posts a request for @p client. @p metadata is policy-specific
     *  (age-based arbitration treats lower values as older/higher
     *  priority). */
    void
    request(std::uint32_t client, std::uint64_t metadata = 0)
    {
        checkSim(client < size_, "arbiter request out of range");
        if (!requests_.test(client)) {
            requests_.set(client);
            ++numRequests_;
            std::uint32_t w = client >> 6;
            firstWord_ = std::min(firstWord_, w);
            lastWord_ = std::max(lastWord_, w);
        }
        if (metadata_ != nullptr) {
            metadata_[client] = metadata;
        }
    }

    /** Removes a previously posted request. */
    void cancel(std::uint32_t client);

    /** True if @p client currently requests. */
    bool requesting(std::uint32_t client) const;

    /** Number of outstanding requests. */
    std::uint32_t numRequests() const { return numRequests_; }

    /** Picks a winner among current requests (kNone if none), then clears
     *  all requests. Policy state is only advanced by grant(). Touches
     *  only the request words that were set since the last call. */
    std::uint32_t arbitrate();

    /** Commits the grant for @p winner, advancing fairness state. */
    virtual void grant(std::uint32_t winner);

  protected:
    /** Policy hook: select a winner among the members of requests_
     *  (called only when there is at least one). */
    virtual std::uint32_t select() = 0;

    std::uint32_t size_;
    Bitmask requests_;
    std::uint32_t numRequests_ = 0;
    /** Per-client metadata store, owned by the policies that read it
     *  (age); null otherwise, so other policies keep no O(size) array
     *  and request() drops the value without a virtual call. */
    std::uint64_t* metadata_ = nullptr;

  private:
    // Range of request words set since the last arbitrate() (empty when
    // firstWord_ > lastWord_).
    std::uint32_t firstWord_;
    std::uint32_t lastWord_ = 0;
};

/** Factory for arbiter models; settings carry policy parameters. */
using ArbiterFactory =
    Factory<Arbiter, Simulator*, const std::string&, const Component*,
            std::uint32_t, const json::Value&>;

}  // namespace ss

#endif  // SS_ARBITER_ARBITER_H_
