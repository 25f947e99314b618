#include "systems/raftkv/server.h"

#include <algorithm>

namespace raftkv {

Server::Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> initial_members)
    : cluster::Process(simulator, network, id, "raft.n" + std::to_string(id)),
      options_(options),
      initial_members_(std::move(initial_members)) {
  s_.members = initial_members_;
}

void Server::OnStart() {
  ResetElectionDeadline();
  Every(options_.heartbeat_interval, [this]() { Tick(); });
}

void Server::ResetElectionDeadline() {
  const auto span = static_cast<uint64_t>(options_.election_timeout_max -
                                          options_.election_timeout_min);
  s_.election_deadline = Now() + options_.election_timeout_min +
                       static_cast<sim::Duration>(simulator()->Rand().NextBelow(span));
}

std::optional<std::string> Server::StoreGet(const std::string& key) const {
  auto it = s_.store.find(key);
  if (it == s_.store.end()) {
    return std::nullopt;
  }
  return it->second;
}

const LogEntry* Server::EntryAt(uint64_t index) const {
  if (index == 0 || index > s_.log.size()) {
    return nullptr;
  }
  return &s_.log[index - 1];
}

bool Server::IsMember(net::NodeId node) const {
  return std::find(s_.members.begin(), s_.members.end(), node) != s_.members.end();
}

void Server::Tick() {
  if (s_.role == Role::kLeader) {
    BroadcastAppendEntries();
    return;
  }
  if (!s_.removed && Now() >= s_.election_deadline) {
    StartElection();
  }
}

void Server::StartElection() {
  s_.role = Role::kCandidate;
  ++s_.term;
  s_.voted_for = id();
  s_.votes.clear();
  s_.votes.insert(id());
  s_.leader_id = net::kInvalidNode;
  ResetElectionDeadline();
  TraceEvent("election-start", "term=" + std::to_string(s_.term));
  if (s_.votes.size() >= Majority()) {
    BecomeLeader();
    return;
  }
  for (net::NodeId peer : s_.members) {
    if (peer == id()) {
      continue;
    }
    auto req = std::make_shared<RequestVoteReq>();
    req->term = s_.term;
    req->candidate = id();
    req->last_log_index = LastLogIndex();
    req->last_log_term = LastLogTerm();
    SendEnvelope(peer, req);
  }
}

void Server::BecomeLeader() {
  s_.role = Role::kLeader;
  s_.leader_id = id();
  TraceEvent("elected", "term=" + std::to_string(s_.term));
  s_.next_index.clear();
  s_.match_index.clear();
  for (net::NodeId peer : s_.members) {
    s_.next_index[peer] = LastLogIndex() + 1;
    s_.match_index[peer] = 0;
  }
  // No-op barrier entry: commits everything from earlier terms once it
  // commits (the standard fix for the stale-read-at-term-start hazard).
  LogEntry entry;
  entry.term = s_.term;
  entry.index = LastLogIndex() + 1;
  entry.command.kind = CommandKind::kNoop;
  s_.log.push_back(entry);
  BroadcastAppendEntries();
}

void Server::BecomeFollower(uint64_t term, net::NodeId leader) {
  const bool was_leader = s_.role == Role::kLeader;
  s_.role = Role::kFollower;
  if (term > s_.term) {
    s_.term = term;
    s_.voted_for = net::kInvalidNode;
  }
  if (leader != net::kInvalidNode) {
    s_.leader_id = leader;
  }
  if (was_leader) {
    TraceEvent("step-down", "term=" + std::to_string(term));
    FailPending("lost leadership");
  }
}

void Server::FailPending(const std::string& reason) {
  (void)reason;
  for (const auto& [index, pending] : s_.pending) {
    auto resp = std::make_shared<ClientResponse>();
    resp->request_id = pending.request_id;
    resp->ok = false;
    resp->not_leader = true;
    resp->leader_hint = s_.leader_id;
    SendEnvelope(pending.client, resp);
  }
  s_.pending.clear();
}

void Server::SendAppendEntries(net::NodeId peer) {
  auto req = std::make_shared<AppendEntriesReq>();
  req->term = s_.term;
  req->leader = id();
  const uint64_t next = s_.next_index[peer];
  req->prev_log_index = next - 1;
  const LogEntry* prev = EntryAt(next - 1);
  req->prev_log_term = prev != nullptr ? prev->term : 0;
  for (uint64_t i = next; i <= LastLogIndex(); ++i) {
    req->entries.push_back(*EntryAt(i));
  }
  req->leader_commit = s_.commit_index;
  SendEnvelope(peer, req);
}

void Server::BroadcastAppendEntries() {
  for (net::NodeId peer : s_.members) {
    if (peer != id()) {
      SendAppendEntries(peer);
    }
  }
}

void Server::ApplyConfig(const Command& command) {
  const std::vector<net::NodeId> old_members = s_.members;
  s_.members = command.members;
  TraceEvent("config", "members=" + std::to_string(s_.members.size()));
  if (s_.role == Role::kLeader) {
    // Tell replicas that just left the configuration; the leader will not
    // contact them again.
    for (net::NodeId node : old_members) {
      if (node != id() && !IsMember(node)) {
        auto notice = std::make_shared<RemoveNotice>();
        notice->members = s_.members;
        SendEnvelope(node, notice);
      }
    }
  }
  if (!IsMember(id())) {
    HandleRemoval();
  }
}

void Server::HandleRemoval() {
  if (options_.delete_log_on_removal) {
    // The RethinkDB #5289 tweak: wipe the log — and with it the memory of
    // ever having been removed. The node is reborn into the *initial*
    // configuration, ready to vote for old-configuration candidates and to
    // serve old-configuration leaders: two replica sets for the same keys.
    TraceEvent("removed-wipe", "log deleted");
    s_.log.clear();
    s_.store.clear();
    s_.commit_index = 0;
    s_.last_applied = 0;
    s_.term = 0;
    s_.voted_for = net::kInvalidNode;
    s_.leader_id = net::kInvalidNode;
    s_.members = initial_members_;
    s_.removed = false;
    s_.role = Role::kFollower;
    s_.pending.clear();
    ResetElectionDeadline();
  } else {
    // Correct retirement: keep the log, refuse further participation.
    TraceEvent("removed-retire");
    s_.removed = true;
    if (s_.role == Role::kLeader) {
      FailPending("removed from configuration");
    }
    s_.role = Role::kFollower;
  }
}

void Server::AdvanceCommitIndex() {
  for (uint64_t n = LastLogIndex(); n > s_.commit_index; --n) {
    const LogEntry* entry = EntryAt(n);
    if (entry->term != s_.term) {
      break;  // only current-term entries commit by counting (Raft §5.4.2)
    }
    size_t count = IsMember(id()) ? 1 : 0;
    for (net::NodeId peer : s_.members) {
      if (peer != id() && s_.match_index[peer] >= n) {
        ++count;
      }
    }
    if (count >= Majority()) {
      s_.commit_index = n;
      break;
    }
  }
  ApplyCommitted();
}

void Server::ApplyCommitted() {
  while (s_.last_applied < s_.commit_index) {
    ++s_.last_applied;
    const LogEntry* entry = EntryAt(s_.last_applied);
    std::string read_value;
    switch (entry->command.kind) {
      case CommandKind::kPut:
        s_.store[entry->command.key] = entry->command.value;
        break;
      case CommandKind::kDelete:
        s_.store.erase(entry->command.key);
        break;
      case CommandKind::kGet: {
        auto it = s_.store.find(entry->command.key);
        read_value = it == s_.store.end() ? "" : it->second;
        break;
      }
      case CommandKind::kNoop:
      case CommandKind::kConfig:
        break;  // config already applied at append time
    }
    auto pending = s_.pending.find(s_.last_applied);
    if (pending != s_.pending.end()) {
      auto resp = std::make_shared<ClientResponse>();
      resp->request_id = pending->second.request_id;
      resp->ok = true;
      resp->value = read_value;
      SendEnvelope(pending->second.client, resp);
      s_.pending.erase(pending);
    }
  }
}

void Server::HandleRequestVote(const net::Envelope& envelope, const RequestVoteReq& msg) {
  if (s_.removed) {
    return;  // retired replicas no longer vote
  }
  if (msg.term > s_.term) {
    BecomeFollower(msg.term, net::kInvalidNode);
  }
  const bool log_ok = msg.last_log_term > LastLogTerm() ||
                      (msg.last_log_term == LastLogTerm() &&
                       msg.last_log_index >= LastLogIndex());
  const bool granted = msg.term == s_.term && log_ok &&
                       (s_.voted_for == net::kInvalidNode || s_.voted_for == msg.candidate);
  if (granted) {
    s_.voted_for = msg.candidate;
    ResetElectionDeadline();
  }
  auto resp = std::make_shared<RequestVoteResp>();
  resp->term = s_.term;
  resp->granted = granted;
  SendEnvelope(envelope.src, resp);
}

void Server::HandleRequestVoteResp(const net::Envelope& envelope, const RequestVoteResp& msg) {
  if (msg.term > s_.term) {
    BecomeFollower(msg.term, net::kInvalidNode);
    return;
  }
  if (s_.role != Role::kCandidate || msg.term != s_.term || !msg.granted) {
    return;
  }
  s_.votes.insert(envelope.src);
  if (s_.votes.size() >= Majority()) {
    BecomeLeader();
  }
}

void Server::HandleAppendEntries(const net::Envelope& envelope, const AppendEntriesReq& msg) {
  auto respond = [this, &envelope](bool success, uint64_t match) {
    auto resp = std::make_shared<AppendEntriesResp>();
    resp->term = s_.term;
    resp->success = success;
    resp->match_index = match;
    SendEnvelope(envelope.src, resp);
  };
  if (s_.removed) {
    return;  // retired replicas no longer replicate
  }
  if (msg.term < s_.term) {
    respond(false, 0);
    return;
  }
  BecomeFollower(msg.term, msg.leader);
  ResetElectionDeadline();

  if (msg.prev_log_index > 0) {
    const LogEntry* prev = EntryAt(msg.prev_log_index);
    if (prev == nullptr || prev->term != msg.prev_log_term) {
      respond(false, 0);
      return;
    }
  }
  for (const LogEntry& entry : msg.entries) {
    const LogEntry* existing = EntryAt(entry.index);
    if (existing != nullptr) {
      if (existing->term == entry.term) {
        continue;  // already have it
      }
      // Conflict: truncate our divergent suffix.
      s_.log.resize(entry.index - 1);
    }
    s_.log.push_back(entry);
    if (entry.command.kind == CommandKind::kConfig) {
      ApplyConfig(entry.command);
      if (s_.log.empty() || s_.removed) {
        // We were just removed (wiped or retired); drop out of this batch.
        return;
      }
    }
  }
  const uint64_t match = msg.prev_log_index + msg.entries.size();
  if (msg.leader_commit > s_.commit_index) {
    s_.commit_index = std::min(msg.leader_commit, LastLogIndex());
    ApplyCommitted();
  }
  respond(true, match);
}

void Server::HandleAppendEntriesResp(const net::Envelope& envelope,
                                     const AppendEntriesResp& msg) {
  if (msg.term > s_.term) {
    BecomeFollower(msg.term, net::kInvalidNode);
    return;
  }
  if (s_.role != Role::kLeader || msg.term != s_.term) {
    return;
  }
  const net::NodeId peer = envelope.src;
  if (msg.success) {
    s_.match_index[peer] = std::max(s_.match_index[peer], msg.match_index);
    s_.next_index[peer] = s_.match_index[peer] + 1;
    AdvanceCommitIndex();
  } else {
    if (s_.next_index[peer] > 1) {
      --s_.next_index[peer];
    }
    SendAppendEntries(peer);
  }
}

void Server::HandleClientCommand(const net::Envelope& envelope, const ClientCommand& msg) {
  if (s_.role != Role::kLeader || s_.removed) {
    auto resp = std::make_shared<ClientResponse>();
    resp->request_id = msg.request_id;
    resp->ok = false;
    resp->not_leader = true;
    resp->leader_hint = s_.leader_id == id() ? net::kInvalidNode : s_.leader_id;
    SendEnvelope(envelope.src, resp);
    return;
  }
  LogEntry entry;
  entry.term = s_.term;
  entry.index = LastLogIndex() + 1;
  entry.command = msg.command;
  s_.log.push_back(entry);
  s_.pending[entry.index] = PendingClient{envelope.src, msg.request_id};
  if (entry.command.kind == CommandKind::kConfig) {
    ApplyConfig(entry.command);
  }
  if (Majority() == 1) {
    AdvanceCommitIndex();
  }
  BroadcastAppendEntries();
}

void Server::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* vote_req = net::As<RequestVoteReq>(msg)) {
    HandleRequestVote(envelope, *vote_req);
  } else if (auto* vote_resp = net::As<RequestVoteResp>(msg)) {
    HandleRequestVoteResp(envelope, *vote_resp);
  } else if (auto* append = net::As<AppendEntriesReq>(msg)) {
    HandleAppendEntries(envelope, *append);
  } else if (auto* append_resp = net::As<AppendEntriesResp>(msg)) {
    HandleAppendEntriesResp(envelope, *append_resp);
  } else if (auto* command = net::As<ClientCommand>(msg)) {
    HandleClientCommand(envelope, *command);
  } else if (auto* notice = net::As<RemoveNotice>(msg)) {
    const bool excluded = std::find(notice->members.begin(), notice->members.end(), id()) ==
                          notice->members.end();
    if (!s_.removed && excluded) {
      s_.members = notice->members;
      HandleRemoval();
    }
  }
}

}  // namespace raftkv
