/** @file Flit/Packet/Message structure tests. */
#include <gtest/gtest.h>

#include <vector>

#include "core/logging.h"
#include "types/message.h"
#include "types/ring_queue.h"

namespace ss {
namespace {

TEST(Types, SingleFlitMessage)
{
    Message msg(1, 0, 2, 3, 1, 64);
    EXPECT_EQ(msg.numPackets(), 1u);
    EXPECT_EQ(msg.totalFlits(), 1u);
    Flit* flit = msg.packet(0)->flit(0);
    EXPECT_TRUE(flit->isHead());
    EXPECT_TRUE(flit->isTail());
    EXPECT_EQ(flit->packet()->message(), &msg);
}

TEST(Types, PacketizationSplitsAtMaxSize)
{
    Message msg(1, 0, 0, 1, 10, 4);  // 10 flits, max packet 4
    ASSERT_EQ(msg.numPackets(), 3u);
    EXPECT_EQ(msg.packet(0)->numFlits(), 4u);
    EXPECT_EQ(msg.packet(1)->numFlits(), 4u);
    EXPECT_EQ(msg.packet(2)->numFlits(), 2u);
    EXPECT_EQ(msg.totalFlits(), 10u);
}

TEST(Types, HeadTailFlags)
{
    Message msg(1, 0, 0, 1, 3, 8);
    Packet* pkt = msg.packet(0);
    EXPECT_TRUE(pkt->flit(0)->isHead());
    EXPECT_FALSE(pkt->flit(0)->isTail());
    EXPECT_FALSE(pkt->flit(1)->isHead());
    EXPECT_FALSE(pkt->flit(1)->isTail());
    EXPECT_TRUE(pkt->flit(2)->isTail());
    EXPECT_EQ(pkt->headFlit(), pkt->flit(0));
    EXPECT_EQ(pkt->tailFlit(), pkt->flit(2));
}

TEST(Types, InOrderReceiveCompletesPacket)
{
    Message msg(1, 0, 0, 1, 3, 8);
    Packet* pkt = msg.packet(0);
    EXPECT_FALSE(pkt->receiveFlit(pkt->flit(0)));
    EXPECT_FALSE(pkt->receiveFlit(pkt->flit(1)));
    EXPECT_TRUE(pkt->receiveFlit(pkt->flit(2)));
    EXPECT_EQ(pkt->receivedFlits(), 3u);
}

TEST(Types, MessageCompletesWhenAllPacketsArrive)
{
    Message msg(1, 0, 0, 1, 6, 3);
    ASSERT_EQ(msg.numPackets(), 2u);
    EXPECT_FALSE(msg.receivePacket(msg.packet(0)));
    EXPECT_TRUE(msg.receivePacket(msg.packet(1)));
}

TEST(Types, RoutingStateDefaults)
{
    Message msg(1, 0, 0, 1, 1, 8);
    Packet* pkt = msg.packet(0);
    EXPECT_EQ(pkt->routingPhase(), 0u);
    EXPECT_EQ(pkt->intermediate(), Packet::kNoIntermediate);
    EXPECT_EQ(pkt->vcClass(), 0u);
    EXPECT_FALSE(pkt->tookNonminimal());
    EXPECT_EQ(pkt->hopCount(), 0u);
    pkt->setTookNonminimal();
    EXPECT_TRUE(msg.tookNonminimal());
}

TEST(Types, MaxHopCountOverPackets)
{
    Message msg(1, 0, 0, 1, 6, 3);
    msg.packet(0)->incrementHopCount();
    msg.packet(1)->incrementHopCount();
    msg.packet(1)->incrementHopCount();
    EXPECT_EQ(msg.maxHopCount(), 2u);
}

using TypesDeathTest = ::testing::Test;

TEST(TypesDeathTest, OutOfOrderFlitPanics)
{
    Message msg(1, 0, 0, 1, 3, 8);
    Packet* pkt = msg.packet(0);
    // §IV-D: flits must arrive in order within a packet.
    EXPECT_DEATH(pkt->receiveFlit(pkt->flit(1)), "out of order");
}

TEST(TypesDeathTest, WrongPacketFlitPanics)
{
    Message msg(1, 0, 0, 1, 6, 3);
    EXPECT_DEATH(msg.packet(0)->receiveFlit(msg.packet(1)->flit(0)),
                 "wrong packet");
}

TEST(Types, InvalidConstructionIsFatal)
{
    EXPECT_THROW(Message(1, 0, 0, 1, 0, 8), FatalError);
    EXPECT_THROW(Message(1, 0, 0, 1, 4, 0), FatalError);
}

TEST(Types, RingQueueKeepsOrderWhenGrowingWrapped)
{
    // Wrap the ring, then grow it with the head mid-ring: the order must
    // survive the unroll, and capacity follows the longest length only.
    RingQueue<int> q;
    int next = 0;
    int expect = 0;
    for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < 3; ++k) {
            q.push_back(next++);
        }
        while (q.size() > 1) {
            EXPECT_EQ(q.front(), expect++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.capacity(), 4u);
    for (int k = 0; k < 9; ++k) {
        q.push_back(next++);
    }
    EXPECT_EQ(q.size(), 10u);
    EXPECT_EQ(q.back(), next - 1);
    EXPECT_EQ(q.capacity(), 16u);
    while (!q.empty()) {
        EXPECT_EQ(q.front(), expect++);
        q.pop_front();
    }
    EXPECT_EQ(expect, next);
}

TEST(Types, RingQueueRecyclesSlotContents)
{
    // pushSlot() hands back a popped slot as it was left, so a slot's
    // vector keeps its capacity across reuse.
    RingQueue<std::vector<int>> q;
    q.pushSlot().assign(100, 7);
    const int* storage = q.front().data();
    for (int k = 0; k < 3; ++k) {
        q.pop_front();
        q.pushSlot();
    }
    q.pop_front();
    std::vector<int>& reused = q.pushSlot();
    EXPECT_EQ(reused.data(), storage);
    EXPECT_EQ(reused.size(), 100u);
}

}  // namespace
}  // namespace ss
