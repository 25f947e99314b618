// A minimal coordination service (ZooKeeper analog).
//
// Provides exactly what the queue system needs for master election: a
// key space with ephemeral entries bound to heartbeat sessions, one-shot
// watches, and first-writer-wins creation. Modelled as a single process —
// the systems in the study treat ZooKeeper as a central service, and the
// interesting failures (Figure 6) come from *which sides of a partition can
// reach it*, not from its internal replication.

#ifndef SYSTEMS_ZK_REGISTRY_H_
#define SYSTEMS_ZK_REGISTRY_H_

#include <map>
#include <set>
#include <string>

#include "cluster/process.h"
#include "systems/zk/messages.h"

namespace zksvc {

class Registry : public cluster::Process {
 public:
  struct Options {
    sim::Duration session_check_interval = sim::Milliseconds(50);
    sim::Duration session_timeout = sim::Milliseconds(300);
  };

  Registry(sim::Simulator* simulator, net::Network* network, net::NodeId id, Options options);

  // --- introspection ---
  bool Exists(const std::string& path) const { return s_.entries.count(path) != 0; }
  std::string Data(const std::string& path) const;
  size_t live_sessions() const { return s_.sessions.size(); }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  struct Entry {
    std::string data;
    bool ephemeral = true;
    net::NodeId owner = net::kInvalidNode;
  };

 public:
  // --- snapshot / restore (NEAT fork executor) ---
  // Every mutable field lives in State, so a snapshot is a copy of s_.
  struct State {
    std::map<std::string, Entry> entries;
    std::map<net::NodeId, sim::Time> sessions;
    std::map<std::string, std::set<net::NodeId>> watches;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 private:
  void Tick();
  void Touch(net::NodeId session);
  void ExpireSession(net::NodeId session);
  void FireWatches(const std::string& path, bool deleted);

  const Options options_;
  State s_;
};

}  // namespace zksvc

#endif  // SYSTEMS_ZK_REGISTRY_H_
