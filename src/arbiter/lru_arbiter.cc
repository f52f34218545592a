#include "arbiter/lru_arbiter.h"

namespace ss {

LruArbiter::LruArbiter(Simulator* simulator, const std::string& name,
                       const Component* parent, std::uint32_t size,
                       const json::Value& settings)
    : Arbiter(simulator, name, parent, size), lastGrant_(size), clock_(size)
{
    (void)settings;
    for (std::uint32_t i = 0; i < size; ++i) {
        lastGrant_[i] = i;
    }
}

std::uint32_t
LruArbiter::select()
{
    std::uint32_t winner = kNone;
    std::uint64_t oldest = 0;
    for (std::uint32_t c = requests_.next(0); c != kNone;
         c = requests_.next(c + 1)) {
        if (winner == kNone || lastGrant_[c] < oldest) {
            winner = c;
            oldest = lastGrant_[c];
        }
    }
    return winner;
}

void
LruArbiter::grant(std::uint32_t winner)
{
    checkSim(winner < size_, "LRU grant out of range");
    lastGrant_[winner] = clock_++;
}

SS_REGISTER(ArbiterFactory, "lru", LruArbiter);

}  // namespace ss
