// Raft RPCs and client messages.

#ifndef SYSTEMS_RAFTKV_MESSAGES_H_
#define SYSTEMS_RAFTKV_MESSAGES_H_

#include <string>
#include <vector>

#include "net/message.h"
#include "systems/raftkv/types.h"

namespace raftkv {

struct RequestVoteReq final : public net::Message {
  std::string_view TypeName() const override { return "raft.RequestVote"; }
  uint64_t term = 0;
  net::NodeId candidate = net::kInvalidNode;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
};

struct RequestVoteResp final : public net::Message {
  std::string_view TypeName() const override { return "raft.RequestVoteResp"; }
  uint64_t term = 0;
  bool granted = false;
};

struct AppendEntriesReq final : public net::Message {
  std::string_view TypeName() const override { return "raft.AppendEntries"; }
  uint64_t term = 0;
  net::NodeId leader = net::kInvalidNode;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  uint64_t leader_commit = 0;
};

struct AppendEntriesResp final : public net::Message {
  std::string_view TypeName() const override { return "raft.AppendEntriesResp"; }
  uint64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;
};

// Leader -> removed replica: you are no longer part of the configuration.
// What the replica does next is the crux of RethinkDB #5289: retire with
// its log intact (correct) or delete the log and forget (flawed).
struct RemoveNotice final : public net::Message {
  std::string_view TypeName() const override { return "raft.RemoveNotice"; }
  std::vector<net::NodeId> members;  // the new configuration
};

struct ClientCommand final : public net::Message {
  std::string_view TypeName() const override { return "raft.ClientCommand"; }
  uint64_t request_id = 0;
  Command command;
};

struct ClientResponse final : public net::Message {
  std::string_view TypeName() const override { return "raft.ClientResponse"; }
  uint64_t request_id = 0;
  bool ok = false;
  bool not_leader = false;
  net::NodeId leader_hint = net::kInvalidNode;
  std::string value;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_MESSAGES_H_
