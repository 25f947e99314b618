#include "systems/raftkv/client.h"

#include <cassert>
#include <utility>

namespace raftkv {

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, std::vector<net::NodeId> servers, check::History* history)
    : cluster::Process(simulator, network, id, "raft.c" + std::to_string(client_num)),
      client_num_(client_num),
      servers_(std::move(servers)),
      history_(history) {
  assert(!servers_.empty());
  s_.contact = servers_.front();
}

void Client::BeginPut(const std::string& key, const std::string& value) {
  Command command;
  command.kind = CommandKind::kPut;
  command.key = key;
  command.value = value;
  Begin(check::OpType::kWrite, std::move(command), /*final_read=*/false);
}

void Client::BeginGet(const std::string& key, bool final_read) {
  Command command;
  command.kind = CommandKind::kGet;
  command.key = key;
  Begin(check::OpType::kRead, std::move(command), final_read);
}

void Client::BeginDelete(const std::string& key) {
  Command command;
  command.kind = CommandKind::kDelete;
  command.key = key;
  Begin(check::OpType::kDelete, std::move(command), /*final_read=*/false);
}

void Client::BeginChangeMembers(std::vector<net::NodeId> members) {
  Command command;
  command.kind = CommandKind::kConfig;
  command.members = std::move(members);
  Begin(check::OpType::kOther, std::move(command), /*final_read=*/false);
}

void Client::Begin(check::OpType type, Command command, bool final_read) {
  assert(!s_.outstanding && "one operation at a time");
  s_.outstanding = true;
  s_.current_command = std::move(command);
  s_.current_request_id = s_.next_request_id++;
  s_.redirects_left = 3;
  s_.pending_op = check::Operation{};
  s_.pending_op.client = client_num_;
  s_.pending_op.type = type;
  s_.pending_op.key = s_.current_command.key;
  s_.pending_op.value = s_.current_command.value;
  s_.pending_op.invoked = Now();
  s_.pending_op.final_read = final_read;

  auto msg = std::make_shared<ClientCommand>();
  msg->request_id = s_.current_request_id;
  msg->command = s_.current_command;
  SendEnvelope(s_.contact, msg);
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
  if (s_.pending_op.type == check::OpType::kRead) {
    s_.pending_op.value = value;
  }
  s_.last_op = s_.pending_op;
  if (history_ != nullptr) {
    s_.last_op.id = history_->Record(s_.pending_op);
  }
}

void Client::OnMessage(const net::Envelope& envelope) {
  const auto* resp = net::As<ClientResponse>(*envelope.msg);
  if (resp == nullptr || !s_.outstanding || resp->request_id != s_.current_request_id) {
    return;
  }
  if (resp->not_leader) {
    if (s_.allow_redirect && s_.redirects_left > 0 && resp->leader_hint != net::kInvalidNode &&
        resp->leader_hint != envelope.src) {
      --s_.redirects_left;
      auto msg = std::make_shared<ClientCommand>();
      msg->request_id = s_.current_request_id;
      msg->command = s_.current_command;
      SendEnvelope(resp->leader_hint, msg);
      return;
    }
    Complete(check::OpStatus::kFail, "");
    return;
  }
  Complete(resp->ok ? check::OpStatus::kOk : check::OpStatus::kFail, resp->value);
}

}  // namespace raftkv
