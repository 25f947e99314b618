#include "neat/adapters.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "check/causal.h"
#include "check/linearizability.h"
#include "neat/coverage.h"
#include "neat/trace_report.h"
#include "neat/trace_scan.h"
#include "sim/value_snapshot.h"

namespace neat {
namespace {

// FNV-1a over a word sequence — the shared idiom for state digests.
class StateHash {
 public:
  void Mix(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (byte * 8)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

bool LocksvcSystem::GetStatus() {
  // Healthy when a lock round-trip works end to end.
  const std::string resource = "__status_probe_" + std::to_string(status_probe_++);
  if (cluster_.Lock(0, resource).status != check::OpStatus::kOk) {
    return false;
  }
  return cluster_.Unlock(0, resource).status == check::OpStatus::kOk;
}

uint64_t PbkvSystem::StateDigest() const {
  StateHash hash;
  hash.Mix(static_cast<uint64_t>(cluster_.FindPrimary()));
  return hash.value();
}

uint64_t RaftKvSystem::StateDigest() const {
  StateHash hash;
  for (const net::NodeId leader : cluster_.Leaders()) {
    hash.Mix(static_cast<uint64_t>(leader));
  }
  return hash.value();
}

uint64_t LocksvcSystem::StateDigest() const {
  StateHash hash;
  for (const net::NodeId id : cluster_.server_ids()) {
    hash.Mix(static_cast<uint64_t>(id));
    for (const net::NodeId member : cluster_.server(id).view()) {
      hash.Mix(static_cast<uint64_t>(member));
    }
  }
  return hash.value();
}

uint64_t MqueueSystem::StateDigest() const {
  StateHash hash;
  hash.Mix(static_cast<uint64_t>(cluster_.MasterPerRegistry()));
  for (const net::NodeId master : cluster_.SelfBelievedMasters()) {
    hash.Mix(static_cast<uint64_t>(master));
  }
  return hash.value();
}

void SchedSystem::Shutdown() {
  net::Group all = cluster_.worker_ids();
  all.push_back(cluster_.rm_id());
  all.push_back(cluster_.store_id());
  cluster_.env().Crash(all);
}

// --- system snapshots ---
//
// Each adapter's snapshot is its cluster's CaptureState (environment plus
// every process) as a value in a sim::ValueSnapshot. Restore unboxes it
// with sim::SnapshotValue, which throws std::logic_error on another
// system's snapshot — the same-system half of the contract.

std::unique_ptr<SystemState> PbkvSystem::Snapshot() const {
  return sim::MakeValueSnapshot<SystemState>(cluster_.CaptureState());
}

void PbkvSystem::Restore(const SystemState& state) {
  cluster_.RestoreState(sim::SnapshotValue<pbkv::Cluster::State>(state));
}

std::unique_ptr<SystemState> RaftKvSystem::Snapshot() const {
  return sim::MakeValueSnapshot<SystemState>(cluster_.CaptureState());
}

void RaftKvSystem::Restore(const SystemState& state) {
  cluster_.RestoreState(sim::SnapshotValue<raftkv::Cluster::State>(state));
}

namespace {
using LocksvcSystemState = std::pair<locksvc::Cluster::State, int>;  // + status probe
}  // namespace

std::unique_ptr<SystemState> LocksvcSystem::Snapshot() const {
  return sim::MakeValueSnapshot<SystemState>(
      LocksvcSystemState{cluster_.CaptureState(), status_probe_});
}

void LocksvcSystem::Restore(const SystemState& state) {
  const auto& [cluster, status_probe] = sim::SnapshotValue<LocksvcSystemState>(state);
  cluster_.RestoreState(cluster);
  status_probe_ = status_probe;
}

std::unique_ptr<SystemState> MqueueSystem::Snapshot() const {
  return sim::MakeValueSnapshot<SystemState>(cluster_.CaptureState());
}

void MqueueSystem::Restore(const SystemState& state) {
  cluster_.RestoreState(sim::SnapshotValue<mqueue::Cluster::State>(state));
}

namespace {

// Picks the node the partition isolates.
net::NodeId PickIsolated(pbkv::Cluster& cluster, IsolationTarget target) {
  if (target == IsolationTarget::kLeader) {
    const net::NodeId primary = cluster.FindPrimary();
    if (primary != net::kInvalidNode) {
      return primary;
    }
  }
  // "Any replica": a fixed non-initial-leader replica keeps runs comparable.
  return cluster.server_ids().back();
}

const char* PartitionKindName(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kComplete:
      return "complete";
    case PartitionKind::kPartial:
      return "partial";
    case PartitionKind::kSimplex:
      return "simplex";
  }
  return "?";
}

// The partition/heal machinery every executor shares: builds the requested
// partition shape around an isolated node (or between explicit groups) and
// tears it down, keeping track of the currently installed partition so
// re-partition and final heal are uniform across systems. Each install and
// heal appends a "neat" trace record — the phase markers the coverage
// signal keys partition-phase edges off (neat/coverage.h).
class PartitionScript {
 public:
  PartitionScript(TestEnv& env, net::Group servers)
      : env_(env), servers_(std::move(servers)) {}

  bool partitioned() const { return s_.partitioned; }
  net::NodeId isolated() const { return s_.isolated; }

  void Partition(PartitionKind kind, net::NodeId isolated) {
    s_.isolated = isolated;
    net::Group rest = net::Partitioner::Rest(servers_, {isolated});
    if (kind == PartitionKind::kPartial) {
      // Cut the isolated node from all but one bridge replica.
      rest = net::Group(rest.begin(), rest.end() - 1);
    }
    PartitionGroups(kind, {isolated}, rest);
  }

  // Cuts `side_a` from `side_b`; nodes in neither group keep full
  // connectivity (the bridge of a partial partition).
  void PartitionGroups(PartitionKind kind, const net::Group& side_a,
                       const net::Group& side_b) {
    Heal();
    switch (kind) {
      case PartitionKind::kComplete:
        s_.partition = env_.partitioner().Complete(side_a, side_b);
        break;
      case PartitionKind::kPartial:
        s_.partition = env_.partitioner().Partial(side_a, side_b);
        break;
      case PartitionKind::kSimplex:
        s_.partition = env_.partitioner().Simplex(side_a, side_b);
        break;
    }
    s_.partitioned = true;
    sim::Simulator& simulator = env_.simulator();
    simulator.Trace().Append(simulator.Now(), "neat", "partition", PartitionKindName(kind));
  }

  void Heal() {
    if (s_.partitioned) {
      env_.partitioner().Heal(s_.partition);
      s_.partitioned = false;
      sim::Simulator& simulator = env_.simulator();
      simulator.Trace().Append(simulator.Now(), "neat", "heal");
    }
  }

  // The installed-partition tracking is part of a forked run's state: the
  // backend rules themselves rewind through the environment snapshot, and
  // this mirrors the script's view of them.
  struct State {
    bool partitioned = false;
    net::Partition partition;
    net::NodeId isolated = net::kInvalidNode;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 private:
  TestEnv& env_;
  const net::Group servers_;
  State s_;
};

// Samples ISystem::StateDigest between test events and turns the observed
// transitions into sd: coverage features. Also owns the incremental trace
// fold (neat/trace_scan.h): each Observe advances it over the records the
// event just appended, so a snapshot taken at an event boundary carries the
// fold's position — a forked case re-scans only its own suffix instead of
// the whole trace at Finish.
class StateObserver {
 public:
  StateObserver(ISystem& system, const sim::TraceLog& trace) : system_(system), trace_(trace) {
    s_.last = system.StateDigest();
  }

  void Observe() {
    const uint64_t digest = system_.StateDigest();
    if (digest != s_.last) {
      s_.features.push_back(StateTransitionFeature(s_.last, digest));
      s_.last = digest;
    }
    s_.scan.Advance(trace_);
  }

  // The run's full coverage: trace-derived features plus the observed
  // state transitions, sorted and deduplicated.
  std::vector<std::string> Finish() {
    s_.scan.Advance(trace_);
    std::vector<std::string> features = s_.scan.Features();
    features.insert(features.end(), s_.features.begin(), s_.features.end());
    std::sort(features.begin(), features.end());
    features.erase(std::unique(features.begin(), features.end()), features.end());
    return features;
  }

  // What Summarize(trace) would report — served from the fold.
  TraceReport Report() {
    s_.scan.Advance(trace_);
    return s_.scan.Report(trace_);
  }

  struct State {
    uint64_t last = 0;
    std::vector<std::string> features;
    TraceScan scan;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 private:
  ISystem& system_;
  const sim::TraceLog& trace_;
  State s_;
};

// --- per-system case runners ---
//
// Each runner is the corresponding Run*TestCase executor cut at its event
// loop: the constructor is everything before the loop (build, settle,
// client config), ApplyEvent is one loop iteration, Finish is everything
// after. The Run*TestCase wrappers below drive a fresh runner straight
// through, so their behaviour is unchanged; the fork executor drives the
// same runner with snapshots in between.
//
// A runner's snapshot is one value: the system's snapshot, the script's and
// the observer's State, and the runner's own per-step State. Each runner's
// State is a distinct type, so restoring another runner's snapshot throws.

template <typename Step>
struct RunnerSnapshot {
  std::unique_ptr<SystemState> system;
  PartitionScript::State script;
  StateObserver::State observer;
  Step step;
};

template <typename Step>
std::unique_ptr<SystemState> SnapshotRunner(const ISystem& system, const PartitionScript& script,
                                            const StateObserver& observer, const Step& step) {
  std::unique_ptr<SystemState> system_state = system.Snapshot();
  if (system_state == nullptr) {
    return nullptr;
  }
  return sim::MakeValueSnapshot<SystemState>(RunnerSnapshot<Step>{
      std::move(system_state), script.CaptureState(), observer.CaptureState(), step});
}

template <typename Step>
void RestoreRunner(const SystemState& state, ISystem& system, PartitionScript& script,
                   StateObserver& observer, Step& step) {
  const auto& snapshot = sim::SnapshotValue<RunnerSnapshot<Step>>(state);
  system.Restore(*snapshot.system);
  script.RestoreState(snapshot.script);
  observer.RestoreState(snapshot.observer);
  step = snapshot.step;
}

class PbkvRunner : public CaseRunner {
 public:
  PbkvRunner(const pbkv::Options& options, uint64_t seed, bool strong)
      : strong_(strong), system_(MakeConfig(options, seed)) {
    pbkv::Cluster& cluster = system_.cluster();
    cluster.Settle(sim::Milliseconds(500));
    observer_.emplace(system_, system_.Env().simulator().Trace());
    cluster.client(kMinorityClient).set_allow_redirect(false);
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
    script_.emplace(cluster.env(), cluster.server_ids());
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    pbkv::Cluster& cluster = system_.cluster();
    switch (event.kind) {
      case EventKind::kPartition:
        script_->Partition(event.partition, PickIsolated(cluster, event.target));
        s_.slept_for_election = false;
        break;
      case EventKind::kHeal:
        script_->Heal();
        break;
      case EventKind::kWrite:
        cluster.Put(ClientFor(event.side), key_, "v" + std::to_string(++s_.value_counter));
        break;
      case EventKind::kRead:
        cluster.Get(ClientFor(event.side), key_);
        break;
      case EventKind::kDelete:
        cluster.Delete(ClientFor(event.side), key_);
        break;
      case EventKind::kLock:
      case EventKind::kUnlock:
        break;  // pbkv has no locks; the locksvc executor covers those
    }
    observer_->Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    pbkv::Cluster& cluster = system_.cluster();
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if (script_->partitioned()) {
      // The studied partitions last minutes to hours; let the system run its
      // failure-handling (elections, step-downs) before the heal so latent
      // damage — e.g. asynchronously replicated writes stranded on a deposed
      // leader — manifests.
      cluster.Settle(sim::Milliseconds(800));
      script_->Heal();
    }
    cluster.Settle(sim::Seconds(1));
    observer_->Observe();
    cluster.client(kMajorityClient).set_contact(cluster.server_ids().front());
    cluster.client(kMajorityClient).set_allow_redirect(true);
    cluster.Get(kMajorityClient, key_, /*final_read=*/true);

    const check::History& history = cluster.history();
    auto add = [&result](std::vector<check::Violation> violations) {
      result.violations.insert(result.violations.end(), violations.begin(), violations.end());
    };
    add(check::CheckDirtyReads(history));
    add(check::CheckDataLoss(history));
    add(check::CheckReappearance(history));
    if (strong_) {
      add(check::CheckStaleReads(history));
    }
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      add(check::CheckCascades(trace));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_->Report();
    result.coverage = observer_->Finish();
    return result;
  }

  struct State {
    bool slept_for_election = false;
    int value_counter = 0;
  };
  std::unique_ptr<SystemState> Snapshot() const override {
    return SnapshotRunner(system_, *script_, *observer_, s_);
  }
  void Restore(const SystemState& state) override {
    RestoreRunner(state, system_, *script_, *observer_, s_);
  }

 private:
  static constexpr int kMinorityClient = 0;
  static constexpr int kMajorityClient = 1;

  static pbkv::Cluster::Config MakeConfig(const pbkv::Options& options, uint64_t seed) {
    pbkv::Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  int ClientFor(Side side) {
    pbkv::Cluster& cluster = system_.cluster();
    if (side == Side::kMinority && script_->partitioned()) {
      // Section 5.2: events on the old leader's side must be invoked right
      // after the partition, before it steps down — no sleep.
      cluster.client(kMinorityClient).set_contact(script_->isolated());
      return kMinorityClient;
    }
    if (script_->partitioned() && !s_.slept_for_election) {
      // ...while on the majority side, the test sleeps until a new leader
      // is elected (the NEAT tests' SLEEP_LEADER_ELECTION_PERIOD).
      cluster.Settle(sim::Milliseconds(600));
      s_.slept_for_election = true;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (script_->partitioned()) {
      for (net::NodeId node : cluster.server_ids()) {
        if (node != script_->isolated()) {
          contact = node;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  const bool strong_;
  PbkvSystem system_;
  std::optional<StateObserver> observer_;
  std::optional<PartitionScript> script_;
  State s_;
  const std::string key_ = "k";
};

class LocksvcRunner : public CaseRunner {
 public:
  LocksvcRunner(const locksvc::Options& options, uint64_t seed)
      : system_(MakeConfig(options, seed)), isolated_(system_.cluster().server_ids().back()) {
    locksvc::Cluster& cluster = system_.cluster();
    cluster.Settle(sim::Milliseconds(300));
    observer_.emplace(system_, system_.Env().simulator().Trace());
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
    script_.emplace(cluster.env(), cluster.server_ids());
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    locksvc::Cluster& cluster = system_.cluster();
    switch (event.kind) {
      case EventKind::kPartition:
        script_->Partition(event.partition, isolated_);
        // Let the flawed views shrink, as the Ignite failures require.
        cluster.Settle(sim::Milliseconds(400));
        break;
      case EventKind::kHeal:
        script_->Heal();
        break;
      case EventKind::kLock:
        cluster.Lock(ClientFor(event.side), lock_);
        break;
      case EventKind::kUnlock:
        cluster.Unlock(ClientFor(event.side), lock_);
        break;
      default:
        break;  // the lock service has no KV surface
    }
    observer_->Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    locksvc::Cluster& cluster = system_.cluster();
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    script_->Heal();
    cluster.Settle(sim::Seconds(1));
    observer_->Observe();
    result.violations = check::CheckBrokenLocks(cluster.history());
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      std::vector<check::Violation> cascades = check::CheckCascades(trace);
      result.violations.insert(result.violations.end(), cascades.begin(), cascades.end());
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_->Report();
    result.coverage = observer_->Finish();
    return result;
  }

  // No per-step fields; the empty State still gives the snapshot its own type.
  struct State {};
  std::unique_ptr<SystemState> Snapshot() const override {
    return SnapshotRunner(system_, *script_, *observer_, s_);
  }
  void Restore(const SystemState& state) override {
    RestoreRunner(state, system_, *script_, *observer_, s_);
  }

 private:
  static constexpr int kMinorityClient = 0;
  static constexpr int kMajorityClient = 1;

  static locksvc::Cluster::Config MakeConfig(const locksvc::Options& options, uint64_t seed) {
    locksvc::Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  int ClientFor(Side side) {
    locksvc::Cluster& cluster = system_.cluster();
    if (side == Side::kMinority && script_->partitioned()) {
      cluster.client(kMinorityClient).set_contact(isolated_);
      return kMinorityClient;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (script_->partitioned() && contact == isolated_) {
      contact = cluster.server_ids()[1];
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  LocksvcSystem system_;
  const net::NodeId isolated_;  // the partition victim, the same in every fork
  std::optional<StateObserver> observer_;
  std::optional<PartitionScript> script_;
  State s_;
  const std::string lock_ = "L";
};

class RaftKvRunner : public CaseRunner {
 public:
  RaftKvRunner(const raftkv::Options& options, uint64_t seed)
      : system_(MakeConfig(options, seed)), initial_leader_(system_.cluster().WaitForLeader()) {
    raftkv::Cluster& cluster = system_.cluster();
    observer_.emplace(system_, system_.Env().simulator().Trace());
    cluster.client(kMinorityClient).set_allow_redirect(false);
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(800));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(800));
    cluster.client(kAdminClient).set_allow_redirect(false);
    cluster.client(kAdminClient).set_op_timeout(sim::Milliseconds(800));
    script_.emplace(cluster.env(), cluster.server_ids());
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    raftkv::Cluster& cluster = system_.cluster();
    const net::Group servers = cluster.server_ids();
    switch (event.kind) {
      case EventKind::kPartition: {
        net::NodeId leader = initial_leader_;
        const std::vector<net::NodeId> leaders = cluster.Leaders();
        if (!leaders.empty()) {
          leader = leaders.front();
        }
        if (event.partition == PartitionKind::kPartial) {
          // RethinkDB #5289: orphan two replicas behind the cut, keep the
          // leader plus one replica, leave one bridge replica reaching
          // both sides — then the admin removes everything beyond the
          // leader pair while the partition is up. With
          // delete_log_on_removal, the bridge wipes its log and votes the
          // orphaned side a second, amnesiac majority.
          const net::Group others = net::Partitioner::Rest(servers, {leader});
          const net::Group keep = {leader, others[1]};
          const net::Group orphaned = {others[2], others[3]};
          script_->PartitionGroups(PartitionKind::kPartial, orphaned, keep);
          s_.minority_side = orphaned;
          cluster.Settle(sim::Milliseconds(100));
          cluster.client(kAdminClient).set_contact(leader);
          cluster.ChangeMembers(kAdminClient, keep);
          cluster.Settle(sim::Seconds(1));
        } else {
          const net::NodeId isolated =
              event.target == IsolationTarget::kLeader ? leader : servers.back();
          script_->Partition(event.partition, isolated);
          s_.minority_side = {isolated};
        }
        s_.slept_for_election = false;
        break;
      }
      case EventKind::kHeal:
        script_->Heal();
        break;
      case EventKind::kWrite:
        cluster.Put(ClientFor(event.side), key_, "v" + std::to_string(++s_.value_counter));
        break;
      case EventKind::kRead:
        cluster.Get(ClientFor(event.side), key_);
        break;
      case EventKind::kDelete:
        cluster.Delete(ClientFor(event.side), key_);
        break;
      case EventKind::kLock:
      case EventKind::kUnlock:
        break;  // no lock surface
    }
    observer_->Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    raftkv::Cluster& cluster = system_.cluster();
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if (script_->partitioned()) {
      cluster.Settle(sim::Milliseconds(800));
      script_->Heal();
    }
    cluster.Settle(sim::Seconds(1));
    observer_->Observe();
    cluster.client(kMajorityClient).set_contact(cluster.server_ids().front());
    cluster.Get(kMajorityClient, key_, /*final_read=*/true);

    const check::History& history = cluster.history();
    auto add = [&result](std::vector<check::Violation> violations) {
      result.violations.insert(result.violations.end(), violations.begin(), violations.end());
    };
    add(check::CheckDirtyReads(history));
    add(check::CheckDataLoss(history));
    add(check::CheckReappearance(history));
    add(check::CheckStaleReads(history));  // raftkv promises strong consistency
    const check::LinearizabilityResult linearizable = check::CheckLinearizable(history);
    if (!linearizable.linearizable) {
      check::Violation violation;
      violation.impact = "non-linearizable";
      violation.description = linearizable.reason;
      result.violations.push_back(std::move(violation));
    }
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      add(check::CheckCascades(trace));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_->Report();
    result.coverage = observer_->Finish();
    return result;
  }

  struct State {
    // The nodes cut off by the current partition; minority-side client
    // events contact its first member.
    net::Group minority_side;
    bool slept_for_election = false;
    int value_counter = 0;
  };
  std::unique_ptr<SystemState> Snapshot() const override {
    return SnapshotRunner(system_, *script_, *observer_, s_);
  }
  void Restore(const SystemState& state) override {
    RestoreRunner(state, system_, *script_, *observer_, s_);
  }

 private:
  static constexpr int kMinorityClient = 0;
  static constexpr int kMajorityClient = 1;
  static constexpr int kAdminClient = 2;

  static raftkv::Cluster::Config MakeConfig(const raftkv::Options& options, uint64_t seed) {
    raftkv::Cluster::Config config;
    config.options = options;
    config.num_servers = 5;  // the #5289 topology needs an orphaned pair
    config.num_clients = 3;
    config.seed = seed;
    return config;
  }

  int ClientFor(Side side) {
    raftkv::Cluster& cluster = system_.cluster();
    if (side == Side::kMinority && script_->partitioned() && !s_.minority_side.empty()) {
      cluster.client(kMinorityClient).set_contact(s_.minority_side.front());
      return kMinorityClient;
    }
    if (script_->partitioned() && !s_.slept_for_election) {
      cluster.Settle(sim::Milliseconds(700));
      s_.slept_for_election = true;
    }
    net::NodeId contact = initial_leader_;
    const std::vector<net::NodeId> leaders = cluster.Leaders();
    for (const net::NodeId leader : leaders) {
      if (std::find(s_.minority_side.begin(), s_.minority_side.end(), leader) ==
          s_.minority_side.end()) {
        contact = leader;
        break;
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  RaftKvSystem system_;
  const net::NodeId initial_leader_;  // elected during set-up
  std::optional<StateObserver> observer_;
  std::optional<PartitionScript> script_;
  State s_;
  const std::string key_ = "k";
};

class MqueueRunner : public CaseRunner {
 public:
  MqueueRunner(const mqueue::Options& options, uint64_t seed)
      : system_(MakeConfig(options, seed)) {
    mqueue::Cluster& cluster = system_.cluster();
    cluster.Settle(sim::Milliseconds(500));  // first master election via the registry
    observer_.emplace(system_, system_.Env().simulator().Trace());
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
    // One fully replicated message before any fault: partition-first pruning
    // leaves no room for a pre-partition enqueue inside the case, but the
    // double-dequeue flaw needs a message both sides of the cut believe they
    // hold.
    cluster.Send(kMajorityClient, queue_, "m0");
    cluster.Settle(sim::Milliseconds(300));
    // The partition universe includes the coordination service, which always
    // rides the majority side: an isolated master's session expires there
    // and the survivors elect a replacement (Figure 6).
    net::Group universe = cluster.broker_ids();
    universe.push_back(cluster.zk_id());
    script_.emplace(cluster.env(), universe);
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    mqueue::Cluster& cluster = system_.cluster();
    switch (event.kind) {
      case EventKind::kPartition: {
        net::NodeId isolated = cluster.MasterPerRegistry();
        if (event.target == IsolationTarget::kAnyReplica || isolated == net::kInvalidNode) {
          // A non-master broker (the last one that is not master).
          for (const net::NodeId broker : cluster.broker_ids()) {
            if (broker != cluster.MasterPerRegistry()) {
              isolated = broker;
            }
          }
        }
        script_->Partition(event.partition, isolated);
        s_.slept_for_takeover = false;
        break;
      }
      case EventKind::kHeal:
        script_->Heal();
        break;
      case EventKind::kWrite:
        cluster.Send(ClientFor(event.side), queue_, "m" + std::to_string(++s_.value_counter));
        break;
      case EventKind::kRead:
        cluster.Receive(ClientFor(event.side), queue_);
        break;
      default:
        break;  // no KV/lock surface
    }
    observer_->Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    mqueue::Cluster& cluster = system_.cluster();
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if (script_->partitioned()) {
      cluster.Settle(sim::Milliseconds(800));
      script_->Heal();
    }
    cluster.Settle(sim::Seconds(1));
    observer_->Observe();

    // Drain the healed cluster's queue so the lost-message checker sees the
    // final state; drained values also complete the double-dequeue pattern.
    net::NodeId master = cluster.MasterPerRegistry();
    if (master == net::kInvalidNode) {
      master = cluster.broker_ids().front();
    }
    cluster.client(kMajorityClient).set_contact(master);
    for (int i = 0; i < 8; ++i) {
      const check::Operation drained =
          cluster.Receive(kMajorityClient, queue_, /*final_drain=*/true);
      if (drained.status != check::OpStatus::kOk || drained.value.empty()) {
        break;
      }
    }
    observer_->Observe();

    const check::History& history = cluster.history();
    auto add = [&result](std::vector<check::Violation> violations) {
      result.violations.insert(result.violations.end(), violations.begin(), violations.end());
    };
    add(check::CheckDoubleDequeue(history));
    add(check::CheckLostMessages(history));
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      add(check::CheckCascades(trace));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_->Report();
    result.coverage = observer_->Finish();
    return result;
  }

  struct State {
    bool slept_for_takeover = false;
    int value_counter = 0;
  };
  std::unique_ptr<SystemState> Snapshot() const override {
    return SnapshotRunner(system_, *script_, *observer_, s_);
  }
  void Restore(const SystemState& state) override {
    RestoreRunner(state, system_, *script_, *observer_, s_);
  }

 private:
  static constexpr int kMinorityClient = 0;
  static constexpr int kMajorityClient = 1;

  static mqueue::Cluster::Config MakeConfig(const mqueue::Options& options, uint64_t seed) {
    mqueue::Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  int ClientFor(Side side) {
    mqueue::Cluster& cluster = system_.cluster();
    if (side == Side::kMinority && script_->partitioned()) {
      cluster.client(kMinorityClient).set_contact(script_->isolated());
      return kMinorityClient;
    }
    if (script_->partitioned() && !s_.slept_for_takeover) {
      // Wait out the session timeout so the surviving brokers take over.
      cluster.Settle(sim::Milliseconds(800));
      s_.slept_for_takeover = true;
    }
    net::NodeId contact = cluster.MasterPerRegistry();
    if (contact == net::kInvalidNode || contact == script_->isolated()) {
      for (const net::NodeId broker : cluster.broker_ids()) {
        if (broker != script_->isolated()) {
          contact = broker;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  MqueueSystem system_;
  std::optional<StateObserver> observer_;
  std::optional<PartitionScript> script_;
  State s_;
  const std::string queue_ = "q";
};

// Drives a fresh runner straight through a case — the classic full-replay
// execution the Run*TestCase functions promise.
template <typename Runner, typename... Args>
ExecutionResult RunStraightThrough(const TestCase& test_case, Args&&... args) {
  Runner runner(std::forward<Args>(args)...);
  for (const TestEvent& event : test_case) {
    runner.ApplyEvent(event);
  }
  return runner.Finish(test_case);
}

}  // namespace

ExecutionResult RunPbkvTestCase(const pbkv::Options& options, const TestCase& test_case,
                                uint64_t seed, bool strong) {
  return RunStraightThrough<PbkvRunner>(test_case, options, seed, strong);
}

ExecutionResult RunLocksvcTestCase(const locksvc::Options& options, const TestCase& test_case,
                                   uint64_t seed) {
  return RunStraightThrough<LocksvcRunner>(test_case, options, seed);
}

ExecutionResult RunRaftKvTestCase(const raftkv::Options& options, const TestCase& test_case,
                                  uint64_t seed) {
  return RunStraightThrough<RaftKvRunner>(test_case, options, seed);
}

ExecutionResult RunMqueueTestCase(const mqueue::Options& options, const TestCase& test_case,
                                  uint64_t seed) {
  return RunStraightThrough<MqueueRunner>(test_case, options, seed);
}

// --- fork-executor runner factories ---

RunnerFactory PbkvRunnerFactory(const pbkv::Options& options, bool strong) {
  return [options, strong](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<PbkvRunner>(options, seed, strong);
  };
}

RunnerFactory LocksvcRunnerFactory(const locksvc::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<LocksvcRunner>(options, seed);
  };
}

RunnerFactory RaftKvRunnerFactory(const raftkv::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<RaftKvRunner>(options, seed);
  };
}

RunnerFactory MqueueRunnerFactory(const mqueue::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<MqueueRunner>(options, seed);
  };
}

// --- system factories ---

SystemFactory MakePbkvFactory(const pbkv::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<ISystem> {
    pbkv::Cluster::Config config;
    config.options = options;
    config.seed = seed;
    return std::make_unique<PbkvSystem>(config);
  };
}

SystemFactory MakeRaftKvFactory(int num_servers) {
  return [num_servers](uint64_t seed) -> std::unique_ptr<ISystem> {
    raftkv::Cluster::Config config;
    config.num_servers = num_servers;
    config.seed = seed;
    return std::make_unique<RaftKvSystem>(config);
  };
}

SystemFactory MakeLocksvcFactory(const locksvc::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<ISystem> {
    locksvc::Cluster::Config config;
    config.options = options;
    config.seed = seed;
    return std::make_unique<LocksvcSystem>(config);
  };
}

SystemFactory MakeMqueueFactory() {
  return [](uint64_t seed) -> std::unique_ptr<ISystem> {
    mqueue::Cluster::Config config;
    config.seed = seed;
    return std::make_unique<MqueueSystem>(config);
  };
}

SystemFactory MakeSchedFactory() {
  return [](uint64_t seed) -> std::unique_ptr<ISystem> {
    sched::Cluster::Config config;
    config.seed = seed;
    return std::make_unique<SchedSystem>(config);
  };
}

// --- campaign executors ---

CaseExecutor PbkvCaseExecutor(const pbkv::Options& options, bool strong) {
  return [options, strong](const TestCase& test_case, uint64_t seed) {
    return RunPbkvTestCase(options, test_case, seed, strong);
  };
}

CaseExecutor LocksvcCaseExecutor(const locksvc::Options& options) {
  return [options](const TestCase& test_case, uint64_t seed) {
    return RunLocksvcTestCase(options, test_case, seed);
  };
}

CaseExecutor RaftKvCaseExecutor(const raftkv::Options& options) {
  return [options](const TestCase& test_case, uint64_t seed) {
    return RunRaftKvTestCase(options, test_case, seed);
  };
}

CaseExecutor MqueueCaseExecutor(const mqueue::Options& options) {
  return [options](const TestCase& test_case, uint64_t seed) {
    return RunMqueueTestCase(options, test_case, seed);
  };
}

CaseExecutor StatusProbeExecutor(SystemFactory factory) {
  return [factory = std::move(factory)](const TestCase& test_case, uint64_t seed) {
    std::unique_ptr<ISystem> system = factory(seed);
    TestEnv& env = system->Env();
    env.Sleep(sim::Milliseconds(500));

    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    StateObserver observer(*system, env.simulator().Trace());

    PartitionScript script(env, system->Servers());
    const net::NodeId isolated = system->Servers().back();
    for (const TestEvent& event : test_case) {
      switch (event.kind) {
        case EventKind::kPartition:
          script.Partition(event.partition, isolated);
          env.Sleep(sim::Milliseconds(400));
          break;
        case EventKind::kHeal:
          script.Heal();
          break;
        default:
          break;  // no generic client surface; client events are skipped
      }
      observer.Observe();
    }
    if (script.partitioned()) {
      env.Sleep(sim::Milliseconds(800));
      script.Heal();
    }
    env.Sleep(sim::Seconds(1));
    observer.Observe();
    if (!system->GetStatus()) {
      check::Violation violation;
      violation.impact = "data unavailability";
      violation.description =
          system->Name() + " cannot make progress after the partition healed";
      result.violations.push_back(std::move(violation));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer.Report();
    result.coverage = observer.Finish();
    return result;
  };
}

}  // namespace neat
