// A queue client (producer/consumer).

#ifndef SYSTEMS_MQUEUE_CLIENT_H_
#define SYSTEMS_MQUEUE_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/mqueue/messages.h"

namespace mqueue {

class Client : public cluster::Process {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> brokers, check::History* history);

  void set_contact(net::NodeId contact) { s_.contact = contact; }
  void set_op_timeout(sim::Duration timeout) { s_.op_timeout = timeout; }

  void BeginSend(const std::string& queue, const std::string& value);
  void BeginReceive(const std::string& queue, bool final_drain = false);

  bool idle() const { return !s_.outstanding; }
  const check::Operation& last_op() const { return s_.last_op; }
  int client_num() const { return client_num_; }

  // --- snapshot / restore (NEAT fork executor) ---
  struct State {
    net::NodeId contact = net::kInvalidNode;
    sim::Duration op_timeout = sim::Milliseconds(800);
    bool outstanding = false;
    uint64_t next_request_id = 1;
    uint64_t current_request_id = 0;
    check::Operation pending_op;
    check::Operation last_op;
    sim::EventId timeout_timer = sim::kInvalidEventId;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, QueueOp op, const std::string& queue,
             const std::string& value, bool final_drain);
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;
  const std::vector<net::NodeId> brokers_;
  check::History* history_;
  State s_;
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_CLIENT_H_
