// A locksvc client: locks, semaphores, and atomic counters.
//
// While the client holds any resource it renews its lease with periodic
// keep-alives to its coordinator; the reclaim flaw needs this traffic to
// stop (a partition between client and service) to trigger.

#ifndef SYSTEMS_LOCKSVC_CLIENT_H_
#define SYSTEMS_LOCKSVC_CLIENT_H_

#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/process.h"
#include "systems/locksvc/messages.h"
#include "systems/locksvc/types.h"

namespace locksvc {

class Client : public cluster::Process {
 public:
  Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
         std::vector<net::NodeId> servers, check::History* history,
         sim::Duration keepalive_interval);

  void set_contact(net::NodeId contact) { s_.contact = contact; }
  void set_op_timeout(sim::Duration timeout) { s_.op_timeout = timeout; }

  void BeginLock(const std::string& resource);
  void BeginUnlock(const std::string& resource);
  void BeginSemAcquire(const std::string& semaphore, int permits);
  void BeginSemRelease(const std::string& semaphore);
  void BeginIncrement(const std::string& counter);

  bool idle() const { return !s_.outstanding; }
  const check::Operation& last_op() const { return s_.last_op; }
  // The value returned by the last successful increment.
  int64_t last_counter_value() const { return s_.last_counter_value; }
  int client_num() const { return client_num_; }

  // --- snapshot / restore (NEAT fork executor) ---
  struct State {
    net::NodeId contact = net::kInvalidNode;
    sim::Duration op_timeout = sim::Milliseconds(800);
    bool outstanding = false;
    uint64_t next_request_id = 1;
    uint64_t current_request_id = 0;
    int held_resources = 0;
    check::Operation pending_op;
    check::Operation last_op;
    int64_t last_counter_value = 0;
    sim::EventId timeout_timer = sim::kInvalidEventId;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Begin(check::OpType type, ResourceKind kind, ClientOp op, const std::string& resource,
             int permits);
  void Complete(check::OpStatus status, int64_t counter_value);

  const int client_num_;
  const std::vector<net::NodeId> servers_;
  check::History* history_;
  const sim::Duration keepalive_interval_;
  State s_;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_CLIENT_H_
