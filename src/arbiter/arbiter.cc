#include "arbiter/arbiter.h"

namespace ss {

Arbiter::Arbiter(Simulator* simulator, const std::string& name,
                 const Component* parent, std::uint32_t size)
    : Component(simulator, name, parent), size_(size), requests_(size)
{
    checkUser(size > 0, "arbiter size must be > 0");
    firstWord_ = requests_.numWords();
}

void
Arbiter::cancel(std::uint32_t client)
{
    checkSim(client < size_, "arbiter cancel out of range");
    if (requests_.test(client)) {
        requests_.reset(client);
        --numRequests_;
    }
}

bool
Arbiter::requesting(std::uint32_t client) const
{
    checkSim(client < size_, "arbiter query out of range");
    return requests_.test(client);
}

std::uint32_t
Arbiter::arbitrate()
{
    if (numRequests_ == 0) {
        return kNone;  // cancel() leaves no member behind
    }
    std::uint32_t winner = select();
    if (winner != kNone) {
        checkSim(winner < size_ && requests_.test(winner),
                 "arbiter selected a non-requesting client");
    }
    for (std::uint32_t w = firstWord_; w <= lastWord_; ++w) {
        requests_.clearWord(w);
    }
    firstWord_ = requests_.numWords();
    lastWord_ = 0;
    numRequests_ = 0;
    return winner;
}

void
Arbiter::grant(std::uint32_t winner)
{
    (void)winner;  // stateless policies ignore grants
}

}  // namespace ss
