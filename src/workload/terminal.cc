#include "workload/terminal.h"

#include "workload/application.h"
#include "workload/workload.h"

namespace ss {

Terminal::Terminal(Simulator* simulator, const std::string& name,
                   const Component* parent, Application* application,
                   std::uint32_t id)
    : Component(simulator, name, parent),
      application_(application),
      id_(id),
      interface_(application->workload()->network()->interface(id))
{
    interface_->setMessageSink(application->id(), this);
    // The terminal's events run where its interface lives, so injection
    // and delivery are partition-local (control partition in serial
    // mode, where interfaces are unpinned).
    setPartition(interface_->partition());
}

Terminal::~Terminal() = default;

std::uint64_t
Terminal::sendMessage(std::uint32_t destination, std::uint32_t num_flits,
                      std::uint32_t max_packet_size, bool sampled)
{
    Workload* workload = application_->workload();
    // Parallel mode cannot share the workload's global id counter across
    // worker threads; pack a unique id from (app, terminal, per-terminal
    // count) instead — deterministic for any thread count.
    std::uint64_t id =
        simulator()->isParallel()
            ? packMessageId(application_->id(), id_, nextLocalMessageId_++)
            : workload->nextMessageId();
    auto message = std::make_unique<Message>(
        id, application_->id(), id_, destination, num_flits,
        max_packet_size);
    message->setCreateTime(now());
    message->setSampled(sampled);
    ++messagesSent_;
    interface_->injectMessage(std::move(message));
    return id;
}

std::uint64_t
Terminal::packMessageId(std::uint32_t app, std::uint32_t terminal,
                        std::uint64_t count)
{
    checkUser(app < (1u << 8), "partitioned runs support at most 256 ",
              "applications (message ids pack the app into 8 bits), ",
              "got app ", app);
    checkUser(terminal < (1u << 24), "partitioned runs support at most ",
              "2^24 terminals (message ids pack the terminal into 24 ",
              "bits), got terminal ", terminal);
    checkSim(count < (std::uint64_t{1} << 32), "terminal ", terminal,
             " of app ", app, " ran out of message ids (2^32 per terminal ",
             "in partitioned runs)");
    return (static_cast<std::uint64_t>(app) << 56) |
           (static_cast<std::uint64_t>(terminal) << 32) | count;
}

void
Terminal::messageDelivered(Message* message)
{
    ++messagesReceived_;
    application_->workload()->recordDelivered(message);
    application_->messageDelivered(message);
}

}  // namespace ss
