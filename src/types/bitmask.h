/**
 * @file
 * Bitmask: a fixed-size set of small integers stored as 64-bit words.
 *
 * Arbiter requests and the input-queued router's allocation state are
 * sets over client or (port, VC) indices that change a few members at a
 * time and are scanned in ascending order every cycle. Words let a scan
 * skip 64 absent members with one count-trailing-zeros, and the ascending
 * scan order is the order the simulator's grants depend on.
 */
#ifndef SS_TYPES_BITMASK_H_
#define SS_TYPES_BITMASK_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace ss {

/** A set of integers in [0, size) with ascending iteration. */
class Bitmask {
  public:
    /** Returned by next() when no member remains. */
    static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

    Bitmask() = default;
    explicit Bitmask(std::uint32_t size) : words_((size + 63) / 64, 0) {}

    void set(std::uint32_t i) { words_[i >> 6] |= bit(i); }
    void reset(std::uint32_t i) { words_[i >> 6] &= ~bit(i); }
    bool
    test(std::uint32_t i) const
    {
        return (words_[i >> 6] & bit(i)) != 0;
    }

    bool
    any() const
    {
        for (std::uint64_t w : words_) {
            if (w != 0) {
                return true;
            }
        }
        return false;
    }

    /** The smallest member >= @p from, or kEnd. */
    std::uint32_t
    next(std::uint32_t from) const
    {
        std::uint32_t w = from >> 6;
        if (w >= words_.size()) {
            return kEnd;
        }
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == words_.size()) {
                return kEnd;
            }
            bits = words_[w];
        }
        return (w << 6) +
               static_cast<std::uint32_t>(std::countr_zero(bits));
    }

    /** Word @p w: members [64w, 64w + 64) as bits. */
    std::uint64_t word(std::uint32_t w) const { return words_[w]; }
    std::uint32_t
    numWords() const
    {
        return static_cast<std::uint32_t>(words_.size());
    }
    void clearWord(std::uint32_t w) { words_[w] = 0; }

  private:
    static std::uint64_t
    bit(std::uint32_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::vector<std::uint64_t> words_;
};

}  // namespace ss

#endif  // SS_TYPES_BITMASK_H_
