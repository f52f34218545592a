#include "arbiter/fixed_priority_arbiter.h"

namespace ss {

FixedPriorityArbiter::FixedPriorityArbiter(Simulator* simulator,
                                           const std::string& name,
                                           const Component* parent,
                                           std::uint32_t size,
                                           const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
}

std::uint32_t
FixedPriorityArbiter::select()
{
    return requests_.next(0);
}

SS_REGISTER(ArbiterFactory, "fixed_priority", FixedPriorityArbiter);

}  // namespace ss
