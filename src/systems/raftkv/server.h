// A Raft server with a key-value state machine.
//
// Standard Raft (elections with the up-to-date log check, log replication,
// majority commit with the current-term restriction, leader no-op barrier,
// reads serialized through the log) plus log-entry membership changes
// applied at append time. The single deviation — behind the
// delete_log_on_removal option — is RethinkDB's tweak, which this module
// exists to study.

#ifndef SYSTEMS_RAFTKV_SERVER_H_
#define SYSTEMS_RAFTKV_SERVER_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "systems/raftkv/messages.h"
#include "systems/raftkv/types.h"

namespace raftkv {

class Server : public cluster::Process {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> initial_members);

  // --- introspection ---
  Role role() const { return s_.role; }
  bool is_leader() const { return s_.role == Role::kLeader; }
  uint64_t term() const { return s_.term; }
  uint64_t commit_index() const { return s_.commit_index; }
  size_t log_size() const { return s_.log.size(); }
  const std::vector<net::NodeId>& members() const { return s_.members; }
  bool removed() const { return s_.removed; }
  std::optional<std::string> StoreGet(const std::string& key) const;

  // Client responses awaiting commit, by log index.
  struct PendingClient {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;
  };

  // --- snapshot / restore (NEAT fork executor) ---
  // Every mutable field lives in State, so a snapshot is a copy of s_.
  struct State {
    std::vector<net::NodeId> members;  // current configuration
    Role role = Role::kFollower;
    uint64_t term = 0;
    net::NodeId voted_for = net::kInvalidNode;
    net::NodeId leader_id = net::kInvalidNode;
    std::vector<LogEntry> log;  // log[i] has index i+1
    uint64_t commit_index = 0;
    uint64_t last_applied = 0;
    sim::Time election_deadline = 0;
    bool removed = false;  // retired after a config change (correct behaviour)
    std::set<net::NodeId> votes;
    std::map<net::NodeId, uint64_t> next_index;
    std::map<net::NodeId, uint64_t> match_index;
    std::map<std::string, std::string> store;
    std::map<uint64_t, PendingClient> pending;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Tick();
  void ResetElectionDeadline();
  void StartElection();
  void BecomeLeader();
  void BecomeFollower(uint64_t term, net::NodeId leader);
  void SendAppendEntries(net::NodeId peer);
  void BroadcastAppendEntries();
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void ApplyConfig(const Command& command);
  void HandleRemoval();

  void HandleRequestVote(const net::Envelope& envelope, const RequestVoteReq& msg);
  void HandleRequestVoteResp(const net::Envelope& envelope, const RequestVoteResp& msg);
  void HandleAppendEntries(const net::Envelope& envelope, const AppendEntriesReq& msg);
  void HandleAppendEntriesResp(const net::Envelope& envelope, const AppendEntriesResp& msg);
  void HandleClientCommand(const net::Envelope& envelope, const ClientCommand& msg);

  uint64_t LastLogIndex() const { return s_.log.empty() ? 0 : s_.log.back().index; }
  uint64_t LastLogTerm() const { return s_.log.empty() ? 0 : s_.log.back().term; }
  const LogEntry* EntryAt(uint64_t index) const;  // 1-based; null if absent
  size_t Majority() const { return s_.members.size() / 2 + 1; }
  bool IsMember(net::NodeId node) const;
  void FailPending(const std::string& reason);

  const Options options_;
  // Bootstrap membership; the live membership is s_.members.
  const std::vector<net::NodeId> initial_members_;
  State s_;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_SERVER_H_
