#include "arbiter/round_robin_arbiter.h"

namespace ss {

RoundRobinArbiter::RoundRobinArbiter(Simulator* simulator,
                                     const std::string& name,
                                     const Component* parent,
                                     std::uint32_t size,
                                     const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
}

std::uint32_t
RoundRobinArbiter::select()
{
    // First requester at or after next_, wrapping to the lowest one.
    std::uint32_t client = requests_.next(next_);
    return client != kNone ? client : requests_.next(0);
}

void
RoundRobinArbiter::grant(std::uint32_t winner)
{
    next_ = (winner + 1) % size_;
}

SS_REGISTER(ArbiterFactory, "round_robin", RoundRobinArbiter);

}  // namespace ss
