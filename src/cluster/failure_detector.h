// Timeout-based failure detection, the mechanism whose false positives drive
// most of the studied failures: an unreachable node is indistinguishable
// from a crashed one, so each process keeps a purely local view of who is
// alive. Under a partial partition these local views disagree — the paper's
// "confusing system state in which the nodes disagree whether a server is up
// or down".
//
// The detector is passive: the owning Process drives it from a periodic
// timer (send heartbeats, then evaluate timeouts) and feeds it received
// heartbeats. This keeps all scheduling epoch-guarded by the owner. It is a
// plain value: the owner keeps it in its snapshotted State, so a fork
// rewinds the detector's view with the rest of the process.

#ifndef CLUSTER_FAILURE_DETECTOR_H_
#define CLUSTER_FAILURE_DETECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "net/message.h"
#include "sim/time.h"

namespace cluster {

// detlint: allow(unhandled-message): heartbeats are consumed generically —
// every server treats *any* message from a member as liveness evidence
// (FailureDetector::RecordHeartbeat at the top of OnMessage), so there is
// deliberately no per-type dispatch case for them.
struct HeartbeatMsg final : public net::Message {
  explicit HeartbeatMsg(uint64_t incarnation_in = 0) : incarnation(incarnation_in) {}
  std::string_view TypeName() const override { return "Heartbeat"; }
  uint64_t incarnation;
};

class FailureDetector {
 public:
  struct Options {
    sim::Duration interval = sim::Milliseconds(100);
    // Peers are declared dead after this many intervals without a heartbeat
    // ("after missing three heartbeats", as in the MongoDB arbiter failure).
    int miss_threshold = 3;
  };

  FailureDetector(net::NodeId self, std::vector<net::NodeId> peers, Options options);
  // A detector with no peers, for owners that assign the configured one in
  // their constructor body.
  FailureDetector() = default;

  // Marks every peer as freshly heard-from; call on (re)start so a booting
  // node does not instantly declare the world dead.
  void Reset(sim::Time now);

  void RecordHeartbeat(net::NodeId peer, sim::Time now);

  bool IsAlive(net::NodeId peer, sim::Time now) const;

  // IsAlive with a caller-supplied timeout; systems that use different
  // thresholds for different decisions (e.g. a primary that steps down more
  // slowly than followers elect) query with their own window.
  bool IsAliveWithin(net::NodeId peer, sim::Time now, sim::Duration timeout) const;

  // Last time a heartbeat from `peer` was recorded (kTimeZero if never).
  sim::Time LastHeard(net::NodeId peer) const;
  std::vector<net::NodeId> AlivePeers(sim::Time now) const;
  std::vector<net::NodeId> DeadPeers(sim::Time now) const;

  const std::vector<net::NodeId>& peers() const { return peers_; }
  const Options& options() const { return options_; }
  net::NodeId self() const { return self_; }

 private:
  sim::Duration DeathTimeout() const {
    return options_.interval * options_.miss_threshold;
  }

  net::NodeId self_ = net::kInvalidNode;
  std::vector<net::NodeId> peers_;
  Options options_;
  std::map<net::NodeId, sim::Time> last_heard_;
};

}  // namespace cluster

#endif  // CLUSTER_FAILURE_DETECTOR_H_
