/**
 * @file
 * A message: the unit of traffic generation handed from a Terminal to its
 * Interface. A message is split into one or more packets of at most the
 * network's maximum packet size.
 */
#ifndef SS_TYPES_MESSAGE_H_
#define SS_TYPES_MESSAGE_H_

#include <cstdint>

#include "core/time.h"
#include "types/fixed_array.h"
#include "types/packet.h"

namespace ss {

/** The application-level unit of communication. */
class Message {
  public:
    /** @param id            globally unique message id
     *  @param app_id        generating application index
     *  @param source        source terminal id
     *  @param destination   destination terminal id
     *  @param num_flits     total message size in flits (>= 1)
     *  @param max_packet_size packets are at most this many flits */
    Message(std::uint64_t id, std::uint32_t app_id, std::uint32_t source,
            std::uint32_t destination, std::uint32_t num_flits,
            std::uint32_t max_packet_size);

    Message(const Message&) = delete;
    Message& operator=(const Message&) = delete;

    std::uint64_t id() const { return id_; }
    std::uint32_t appId() const { return appId_; }
    std::uint32_t source() const { return source_; }
    std::uint32_t destination() const { return destination_; }

    std::uint32_t numPackets() const;
    Packet* packet(std::uint32_t index) const;
    std::uint32_t totalFlits() const { return totalFlits_; }

    /** True if this message's latency is gathered in the sampling window
     *  (generated during the Generating phase). */
    bool sampled() const { return sampled_; }
    void setSampled(bool s) { sampled_ = s; }

    /** Time the terminal created the message. */
    Time createTime() const { return createTime_; }
    void setCreateTime(Time t) { createTime_ = t; }

    /** Time the final flit reached the destination terminal. */
    Time deliverTime() const { return deliverTime_; }
    void setDeliverTime(Time t) { deliverTime_ = t; }

    /** Destination-side bookkeeping; returns true when all packets of the
     *  message have fully arrived. */
    bool receivePacket(const Packet* packet);

    /** Largest hop count over this message's packets (for logging). */
    std::uint32_t maxHopCount() const;

    /** True if any packet took a non-minimal route. */
    bool tookNonminimal() const;

  private:
    friend class Network;
    /** Network::registerMessage's slot-table index while in flight. */
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    std::uint64_t id_;
    std::uint32_t appId_;
    std::uint32_t source_;
    std::uint32_t destination_;
    std::uint32_t totalFlits_;
    /** Packets stored by value, contiguously: one allocation per message,
     *  stable Packet* addresses (flits hold packet back-pointers). */
    FixedArray<Packet> packets_;
    bool sampled_ = false;
    Time createTime_ = Time::invalid();
    Time deliverTime_ = Time::invalid();
    std::uint32_t receivedPackets_ = 0;
    std::uint32_t registrySlot_ = kNoSlot;
};

}  // namespace ss

#endif  // SS_TYPES_MESSAGE_H_
