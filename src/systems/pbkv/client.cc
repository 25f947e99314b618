#include "systems/pbkv/client.h"

#include <cassert>
#include <utility>

namespace pbkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id, int client_num,
               std::vector<net::NodeId> servers, check::History* history)
    : cluster::Process(simulator, network, id, "pbkv.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history) {
  assert(!servers_.empty());
  s_.contact = servers_.front();
}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Begin(check::OpType::kWrite, OpKind::kPut, /*is_read=*/false, key, value,
        /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Begin(check::OpType::kRead, OpKind::kPut, /*is_read=*/true, key, "", final_read);
}

void Client::BeginDelete(const std::string& key) {
  Begin(check::OpType::kDelete, OpKind::kDelete, /*is_read=*/false, key, "",
        /*final_read=*/false);
}

void Client::Begin(check::OpType type, OpKind kind, bool is_read, const std::string& key,
                   const std::string& value, bool final_read) {
  assert(!s_.outstanding && "one operation at a time");
  s_.outstanding = true;
  s_.current_request_id = s_.next_request_id++;
  s_.redirects_left = 3;
  s_.pending_op = check::Operation{};
  s_.pending_op.client = client_num_;
  s_.pending_op.type = type;
  s_.pending_op.key = key;
  s_.pending_op.value = value;
  s_.pending_op.invoked = Now();
  s_.pending_op.final_read = final_read;
  // Stash the wire fields in the request we resend on redirect.
  s_.request_kind = kind;
  s_.request_is_read = is_read;
  SendRequest(s_.contact);
  s_.timeout_timer = After(s_.op_timeout, [this]() {
    if (s_.outstanding) {
      Complete(check::OpStatus::kTimeout, "");
    }
  });
}

void Client::SendRequest(net::NodeId target) {
  auto request = std::make_shared<ClientRequest>();
  request->request_id = s_.current_request_id;
  request->kind = s_.request_kind;
  request->is_read = s_.request_is_read;
  request->key = s_.pending_op.key;
  request->value = s_.pending_op.value;
  SendEnvelope(target, request);
}

void Client::Complete(check::OpStatus status, const std::string& value) {
  s_.outstanding = false;
  simulator()->Cancel(s_.timeout_timer);
  s_.pending_op.completed = Now();
  s_.pending_op.status = status;
  if (s_.pending_op.type == check::OpType::kRead) {
    s_.pending_op.value = value;
  }
  s_.last_op = s_.pending_op;
  if (history_ != nullptr) {
    const uint64_t op_id = history_->Record(s_.pending_op);
    s_.last_op.id = op_id;
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* reply = dynamic_cast<const ClientReply*>(envelope.msg.get());
  if (reply == nullptr || !s_.outstanding || reply->request_id != s_.current_request_id) {
    return;
  }
  if (reply->not_leader) {
    if (s_.allow_redirect && s_.redirects_left > 0 && reply->leader_hint != net::kInvalidNode &&
        reply->leader_hint != envelope.src) {
      --s_.redirects_left;
      SendRequest(reply->leader_hint);
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(reply->ok ? check::OpStatus::kOk : check::OpStatus::kFail, reply->value);
}

}  // namespace pbkv
