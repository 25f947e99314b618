#include "systems/locksvc/client.h"

#include <cassert>
#include <utility>

namespace locksvc {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> servers, check::History* history,
               sim::Duration keepalive_interval)
    : cluster::Process(simulator, network, id, "locksvc.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history),
      keepalive_interval_(keepalive_interval) {
  assert(!servers_.empty());
  s_.contact = servers_.front();
}

void Client::OnStart() {
  Every(keepalive_interval_, [this]() {
    if (s_.held_resources > 0) {
      auto msg = std::make_shared<KeepAlive>();
      msg->client = client_num_;
      SendEnvelope(s_.contact, msg);
    }
  });
}

void Client::BeginLock(const std::string& resource) {
  Begin(check::OpType::kLock, ResourceKind::kLock, ClientOp::kAcquire, resource, 1);
}

void Client::BeginUnlock(const std::string& resource) {
  Begin(check::OpType::kUnlock, ResourceKind::kLock, ClientOp::kRelease, resource, 1);
}

void Client::BeginSemAcquire(const std::string& semaphore, int permits) {
  Begin(check::OpType::kSemAcquire, ResourceKind::kSemaphore, ClientOp::kAcquire, semaphore,
        permits);
}

void Client::BeginSemRelease(const std::string& semaphore) {
  Begin(check::OpType::kSemRelease, ResourceKind::kSemaphore, ClientOp::kRelease, semaphore, 1);
}

void Client::BeginIncrement(const std::string& counter) {
  Begin(check::OpType::kOther, ResourceKind::kCounter, ClientOp::kIncrement, counter, 1);
}

void Client::Begin(check::OpType type, ResourceKind kind, ClientOp op,
                   const std::string& resource, int permits) {
  assert(!s_.outstanding && "one operation at a time");
  s_.outstanding = true;
  s_.current_request_id = s_.next_request_id++;
  s_.pending_op = check::Operation{};
  s_.pending_op.client = client_num_;
  s_.pending_op.type = type;
  s_.pending_op.key = resource;
  s_.pending_op.invoked = Now();

  auto request = std::make_shared<ClientLockRequest>();
  request->request_id = s_.current_request_id;
  request->kind = kind;
  request->op = op;
  request->resource = resource;
  request->permits = permits;
  SendEnvelope(s_.contact, request);
  s_.timeout_timer = After(s_.op_timeout, [this]() {
    if (s_.outstanding) {
      Complete(check::OpStatus::kTimeout, 0);
    }
  });
}

void Client::Complete(check::OpStatus status, int64_t counter_value) {
  s_.outstanding = false;
  simulator()->Cancel(s_.timeout_timer);
  s_.pending_op.completed = Now();
  s_.pending_op.status = status;
  if (status == check::OpStatus::kOk) {
    if (s_.pending_op.type == check::OpType::kLock ||
        s_.pending_op.type == check::OpType::kSemAcquire) {
      ++s_.held_resources;
    } else if ((s_.pending_op.type == check::OpType::kUnlock ||
                s_.pending_op.type == check::OpType::kSemRelease) &&
               s_.held_resources > 0) {
      --s_.held_resources;
    }
    if (s_.pending_op.type == check::OpType::kOther) {
      s_.last_counter_value = counter_value;
      s_.pending_op.value = std::to_string(counter_value);
    }
  }
  s_.last_op = s_.pending_op;
  if (history_ != nullptr) {
    s_.last_op.id = history_->Record(s_.pending_op);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = dynamic_cast<const ClientLockReply*>(envelope.msg.get());
  if (reply == nullptr || !s_.outstanding || reply->request_id != s_.current_request_id) {
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->counter_value);
}

}  // namespace locksvc
