#include "arbiter/age_arbiter.h"

namespace ss {

AgeArbiter::AgeArbiter(Simulator* simulator, const std::string& name,
                       const Component* parent, std::uint32_t size,
                       const json::Value& settings)
    : Arbiter(simulator, name, parent, size), ages_(size, 0)
{
    (void)settings;
    metadata_ = ages_.data();
}

std::uint32_t
AgeArbiter::select()
{
    // Requesters in rotation order from next_; the first of equally old
    // ones wins, which is the round-robin tiebreak.
    std::uint32_t winner = kNone;
    std::uint64_t best = ~std::uint64_t{0};
    auto consider = [&](std::uint32_t client) {
        if (winner == kNone || ages_[client] < best) {
            winner = client;
            best = ages_[client];
        }
    };
    for (std::uint32_t c = requests_.next(next_); c != kNone;
         c = requests_.next(c + 1)) {
        consider(c);
    }
    for (std::uint32_t c = requests_.next(0); c < next_;
         c = requests_.next(c + 1)) {
        consider(c);
    }
    return winner;
}

void
AgeArbiter::grant(std::uint32_t winner)
{
    next_ = (winner + 1) % size_;
}

SS_REGISTER(ArbiterFactory, "age", AgeArbiter);

}  // namespace ss
