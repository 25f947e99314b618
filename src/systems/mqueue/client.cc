#include "systems/mqueue/client.h"

#include <cassert>
#include <utility>

namespace mqueue {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> brokers, check::History* history)
    : cluster::Process(simulator, network, id, "mq.c" + std::to_string(client_num)),
      client_num_(client_num),
      brokers_(std::move(brokers)),
      history_(history) {
  assert(!brokers_.empty());
  s_.contact = brokers_.front();
}

void Client::BeginSend(const std::string& queue, const std::string& value) {
  Begin(check::OpType::kEnqueue, QueueOp::kEnqueue, queue, value, /*final_drain=*/false);
}

void Client::BeginReceive(const std::string& queue, bool final_drain) {
  Begin(check::OpType::kDequeue, QueueOp::kDequeue, queue, "", final_drain);
}

void Client::Begin(check::OpType type, QueueOp op, const std::string& queue,
                   const std::string& value, bool final_drain) {
  assert(!s_.outstanding && "one operation at a time");
  s_.outstanding = true;
  s_.current_request_id = s_.next_request_id++;
  s_.pending_op = check::Operation{};
  s_.pending_op.client = client_num_;
  s_.pending_op.type = type;
  s_.pending_op.key = queue;
  s_.pending_op.value = value;
  s_.pending_op.invoked = Now();
  s_.pending_op.final_read = final_drain;

  auto request = std::make_shared<ClientQueueRequest>();
  request->request_id = s_.current_request_id;
  request->op = op;
  request->queue = queue;
  request->value = value;
  SendEnvelope(s_.contact, request);
  s_.timeout_timer = After(s_.op_timeout, [this]() {
    if (s_.outstanding) {
      Complete(check::OpStatus::kTimeout, "");
    }
  });
}

void Client::Complete(check::OpStatus status, const std::string& value) {
  s_.outstanding = false;
  simulator()->Cancel(s_.timeout_timer);
  s_.pending_op.completed = Now();
  s_.pending_op.status = status;
  if (s_.pending_op.type == check::OpType::kDequeue) {
    s_.pending_op.value = value;
  }
  s_.last_op = s_.pending_op;
  if (history_ != nullptr) {
    s_.last_op.id = history_->Record(s_.pending_op);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = net::As<ClientQueueReply>(*envelope.msg);
  if (reply == nullptr || !s_.outstanding || reply->request_id != s_.current_request_id) {
    return;
  }
  if (reply->not_master) {
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace mqueue
