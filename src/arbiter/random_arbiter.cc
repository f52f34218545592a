#include "arbiter/random_arbiter.h"

#include <bit>

namespace ss {

RandomArbiter::RandomArbiter(Simulator* simulator, const std::string& name,
                             const Component* parent, std::uint32_t size,
                             const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
}

std::uint32_t
RandomArbiter::select()
{
    // The pick-th requester in ascending client order.
    std::uint64_t pick = random().nextU64(numRequests_);
    for (std::uint32_t w = 0; w < requests_.numWords(); ++w) {
        std::uint64_t bits = requests_.word(w);
        auto members = static_cast<std::uint64_t>(std::popcount(bits));
        if (pick >= members) {
            pick -= members;
            continue;
        }
        for (; pick > 0; --pick) {
            bits &= bits - 1;  // drop the lowest member
        }
        return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    return kNone;
}

SS_REGISTER(ArbiterFactory, "random", RandomArbiter);

}  // namespace ss
