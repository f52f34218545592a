/**
 * @file
 * RingQueue: a FIFO in one power-of-two ring of slots that never shrinks.
 *
 * std::deque frees a block whenever pop_front empties one and allocates a
 * fresh one whenever push_back crosses into the next, so a queue whose
 * length stays bounded — a router buffer, a pending-update list — still
 * touches the heap every few dozen elements for as long as it is used. A
 * RingQueue allocates only when it grows past its longest length so far.
 *
 * Popped slots are not destroyed: pushSlot() hands a recycled slot back
 * as it was left, so slots that own storage (say, a vector that is
 * cleared before reuse) keep their capacity from one round to the next.
 */
#ifndef SS_TYPES_RING_QUEUE_H_
#define SS_TYPES_RING_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ss {

template <typename T>
class RingQueue {
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots held: grows with the longest length so far, never shrinks. */
    std::size_t capacity() const { return slots_.size(); }

    T& front() { return slots_[head_]; }
    const T& front() const { return slots_[head_]; }
    T& back() { return at(size_ - 1); }

    void push_back(const T& value) { pushSlot() = value; }

    /** Appends the next slot as it was last left (default-constructed
     *  when new) and returns it for the caller to fill. */
    T&
    pushSlot()
    {
        if (size_ == slots_.size()) {
            grow();
        }
        return at(size_++);
    }

    /** Drops the front element; its slot keeps its contents for reuse. */
    void
    pop_front()
    {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

  private:
    T& at(std::size_t k) { return slots_[(head_ + k) & (slots_.size() - 1)]; }

    /** Unrolls the ring into one twice the size, oldest element first. */
    void
    grow()
    {
        std::vector<T> grown(std::max<std::size_t>(4, 2 * slots_.size()));
        for (std::size_t k = 0; k < size_; ++k) {
            grown[k] = std::move(at(k));
        }
        slots_.swap(grown);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace ss

#endif  // SS_TYPES_RING_QUEUE_H_
