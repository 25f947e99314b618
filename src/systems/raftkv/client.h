// A raftkv client (including the admin operations).

#ifndef SYSTEMS_RAFTKV_CLIENT_H_
#define SYSTEMS_RAFTKV_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/raftkv/messages.h"

namespace raftkv {

class Client : public cluster::Process {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> servers, check::History* history);

  void set_contact(net::NodeId contact) { s_.contact = contact; }
  void set_allow_redirect(bool allow) { s_.allow_redirect = allow; }
  void set_op_timeout(sim::Duration timeout) { s_.op_timeout = timeout; }

  void BeginPut(const std::string& key, const std::string& value);
  void BeginGet(const std::string& key, bool final_read = false);
  void BeginDelete(const std::string& key);
  // Admin: replace the cluster membership (modelled on RethinkDB's
  // "change the replication factor").
  void BeginChangeMembers(std::vector<net::NodeId> members);

  bool idle() const { return !s_.outstanding; }
  const check::Operation& last_op() const { return s_.last_op; }

  // --- snapshot / restore (NEAT fork executor) ---
  struct State {
    net::NodeId contact = net::kInvalidNode;
    bool allow_redirect = true;
    sim::Duration op_timeout = sim::Milliseconds(1500);
    bool outstanding = false;
    Command current_command;
    uint64_t next_request_id = 1;
    uint64_t current_request_id = 0;
    int redirects_left = 0;
    check::Operation pending_op;
    check::Operation last_op;
    sim::EventId timeout_timer = sim::kInvalidEventId;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 protected:
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, Command command, bool final_read);
  void Complete(check::OpStatus status, const std::string& value);

  const int client_num_;
  const std::vector<net::NodeId> servers_;
  check::History* history_;
  State s_;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_CLIENT_H_
