// ISystem adapters for the model systems, plus the runner factories that
// run generated test cases (neat/testgen.h) against them. Together these
// are the "seven systems tested with NEAT" layer of the paper, scaled to
// the systems this repository implements. The factories plug into the
// campaign runner (neat/campaign.h) through ReplayExecutor or the fork
// executor, so a sweep can target any model system.

#ifndef NEAT_ADAPTERS_H_
#define NEAT_ADAPTERS_H_

#include <memory>
#include <string>
#include <vector>

#include "check/checkers.h"
#include "neat/campaign.h"
#include "neat/fork.h"
#include "neat/system.h"
#include "neat/testgen.h"
#include "systems/locksvc/cluster.h"
#include "systems/mqueue/cluster.h"
#include "systems/pbkv/cluster.h"
#include "systems/raftkv/cluster.h"
#include "systems/sched/cluster.h"

namespace neat {

class PbkvSystem : public ISystem {
 public:
  explicit PbkvSystem(const pbkv::Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return "pbkv"; }
  TestEnv& Env() override { return cluster_.env(); }
  net::Group Servers() const override { return cluster_.server_ids(); }
  bool GetStatus() override { return cluster_.FindPrimary() != net::kInvalidNode; }
  uint64_t StateDigest() const override;  // who is primary
  void Shutdown() override { cluster_.env().Crash(cluster_.server_ids()); }
  std::unique_ptr<SystemState> Snapshot() const override;
  void Restore(const SystemState& state) override;
  pbkv::Cluster& cluster() { return cluster_; }
  const pbkv::Cluster& cluster() const { return cluster_; }

 private:
  pbkv::Cluster cluster_;
};

class RaftKvSystem : public ISystem {
 public:
  explicit RaftKvSystem(const raftkv::Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return "raftkv"; }
  TestEnv& Env() override { return cluster_.env(); }
  net::Group Servers() const override { return cluster_.server_ids(); }
  bool GetStatus() override { return !cluster_.Leaders().empty(); }
  uint64_t StateDigest() const override;  // the set of self-believed leaders
  void Shutdown() override { cluster_.env().Crash(cluster_.server_ids()); }
  std::unique_ptr<SystemState> Snapshot() const override;
  void Restore(const SystemState& state) override;
  raftkv::Cluster& cluster() { return cluster_; }
  const raftkv::Cluster& cluster() const { return cluster_; }

 private:
  raftkv::Cluster cluster_;
};

class LocksvcSystem : public ISystem {
 public:
  explicit LocksvcSystem(const locksvc::Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return "locksvc"; }
  TestEnv& Env() override { return cluster_.env(); }
  net::Group Servers() const override { return cluster_.server_ids(); }
  bool GetStatus() override;
  // Per-server membership views. GetStatus() probes with a real lock
  // round-trip and would perturb the run, so the digest reads the views
  // directly instead.
  uint64_t StateDigest() const override;
  void Shutdown() override { cluster_.env().Crash(cluster_.server_ids()); }
  // The snapshot includes the status-probe counter: probe lock names land
  // in the history, so a forked run must reuse the same sequence.
  std::unique_ptr<SystemState> Snapshot() const override;
  void Restore(const SystemState& state) override;
  locksvc::Cluster& cluster() { return cluster_; }
  const locksvc::Cluster& cluster() const { return cluster_; }

 private:
  locksvc::Cluster cluster_;
  // Per-instance (not static): campaign workers probe concurrently.
  int status_probe_ = 0;
};

class MqueueSystem : public ISystem {
 public:
  explicit MqueueSystem(const mqueue::Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return "mqueue"; }
  TestEnv& Env() override { return cluster_.env(); }
  net::Group Servers() const override { return cluster_.broker_ids(); }
  bool GetStatus() override { return cluster_.MasterPerRegistry() != net::kInvalidNode; }
  uint64_t StateDigest() const override;  // registry master + self-believed masters
  void Shutdown() override { cluster_.env().Crash(cluster_.broker_ids()); }
  std::unique_ptr<SystemState> Snapshot() const override;
  void Restore(const SystemState& state) override;
  mqueue::Cluster& cluster() { return cluster_; }
  const mqueue::Cluster& cluster() const { return cluster_; }

 private:
  mqueue::Cluster cluster_;
};

class SchedSystem : public ISystem {
 public:
  explicit SchedSystem(const sched::Cluster::Config& config) : cluster_(config) {}
  std::string Name() const override { return "sched"; }
  TestEnv& Env() override { return cluster_.env(); }
  net::Group Servers() const override { return cluster_.worker_ids(); }
  bool GetStatus() override { return !cluster_.rm().crashed(); }
  // Mirrors the ISystem default's healthy/unhealthy constants (keyed off
  // the same resource-manager liveness GetStatus reports) so existing sd:
  // coverage features are unchanged, but through a const read-only probe.
  uint64_t StateDigest() const override {
    return !cluster_.rm().crashed() ? 0x9e3779b97f4a7c15ull : 0x94d049bb133111ebull;
  }
  void Shutdown() override;
  sched::Cluster& cluster() { return cluster_; }

 private:
  sched::Cluster cluster_;
};

// --- runner factories and executors ---
//
// A system's RunnerFactory is its one entry point: it builds a fresh,
// fully set-up runner per seed, which the fork executor (neat/fork.h)
// drives with snapshots between events and ReplayExecutor drives straight
// through. Both give byte-identical results. Each factory captures only its
// options, so the executors built on it are safe to invoke concurrently
// from campaign workers.
//
// In every system, minority-side client events go through a client pinned
// to the isolated side and majority-side events through a client pinned to
// the survivors. After the sequence the partition is healed, the system
// settles, final verification reads run, and the checkers scan the
// history.

// pbkv: write/read/delete events map to the KV API; judged by the dirty-
// read, data-loss, reappearance and stale-read checkers.
RunnerFactory PbkvRunnerFactory(const pbkv::Options& options);

// The lock service: lock/unlock events map to the locksvc client API, and
// the broken-locks checker judges the run.
RunnerFactory LocksvcRunnerFactory(const locksvc::Options& options);

// raftkv (RethinkDB analog): write/read/delete events map to the KV API on
// a 5-server cluster. A partial partition reproduces the #5289 topology —
// two replicas orphaned behind the cut, a bridge replica reaching both
// sides, and an admin that shrinks the member set to the leader's side
// while the partition is up (the membership change is part of the fault
// model, not the event alphabet, mirroring how the paper's RethinkDB
// failure needs an admin action during the partition). Judged by the KV
// checkers plus the linearizability checker.
RunnerFactory RaftKvRunnerFactory(const raftkv::Options& options);

// mqueue (ActiveMQ analog): write/read events map to send/receive. Setup
// enqueues one fully replicated message, so a partition-first case can
// still dequeue on both sides of the cut — the shape of the AMQ-6978
// double dequeue. The partition universe includes the coordination service
// on the majority side (an isolated master's session expires and the
// survivors elect a replacement, Figure 6), and a final majority-side
// drain empties the queue for the double-dequeue and lost-message checkers.
RunnerFactory MqueueRunnerFactory(const mqueue::Options& options);

// ReplayExecutor over the matching RunnerFactory.
CaseExecutor PbkvCaseExecutor(const pbkv::Options& options);
CaseExecutor LocksvcCaseExecutor(const locksvc::Options& options);
CaseExecutor RaftKvCaseExecutor(const raftkv::Options& options);
CaseExecutor MqueueCaseExecutor(const mqueue::Options& options);

}  // namespace neat

#endif  // NEAT_ADAPTERS_H_
