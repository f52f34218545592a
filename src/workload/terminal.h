/**
 * @file
 * Abstract Terminal (paper §IV-A): the per-endpoint traffic generator of
 * one application. Terminals create messages and receive the messages
 * addressed to them.
 */
#ifndef SS_WORKLOAD_TERMINAL_H_
#define SS_WORKLOAD_TERMINAL_H_

#include "core/component.h"
#include "network/interface.h"
#include "network/message_sink.h"

namespace ss {

class Application;

/** Base class of per-endpoint traffic generators. */
class Terminal : public Component, public MessageSink {
  public:
    /** @param id the endpoint (= interface) this terminal sits on */
    Terminal(Simulator* simulator, const std::string& name,
             const Component* parent, Application* application,
             std::uint32_t id);
    ~Terminal() override;

    Application* application() const { return application_; }
    std::uint32_t id() const { return id_; }
    Interface* interface() const { return interface_; }

    std::uint64_t messagesSent() const { return messagesSent_; }
    std::uint64_t messagesReceived() const { return messagesReceived_; }

    // ----- MessageSink -----
    void messageDelivered(Message* message) override;

    /** The message id a partitioned run gives the @p count-th message of
     *  @p terminal in app @p app: app in the top 8 bits, terminal in the
     *  next 24, count in the low 32. Fails (too many apps or terminals:
     *  a user error; too many messages: a simulator limit) rather than
     *  alias another message's id when a field does not fit. */
    static std::uint64_t packMessageId(std::uint32_t app,
                                       std::uint32_t terminal,
                                       std::uint64_t count);

  protected:
    /** Creates and injects a message; returns its id. */
    std::uint64_t sendMessage(std::uint32_t destination,
                              std::uint32_t num_flits,
                              std::uint32_t max_packet_size, bool sampled);

  private:
    Application* application_;
    std::uint32_t id_;
    Interface* interface_;
    std::uint64_t messagesSent_ = 0;
    std::uint64_t messagesReceived_ = 0;
    /** Per-terminal message id counter for parallel mode. */
    std::uint64_t nextLocalMessageId_ = 0;
};

}  // namespace ss

#endif  // SS_WORKLOAD_TERMINAL_H_
