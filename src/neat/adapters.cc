#include "neat/adapters.h"

#include <algorithm>
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

// The partition/heal machinery every runner shares: builds the requested
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
  StateObserver(ISystem& system, const sim::TraceLog& trace) : system_(system), trace_(trace) {}

  // Samples the digest later transitions are measured from. Each driver
  // calls it at a fixed point of its setup, once the cluster has booted.
  void Start() { s_.last = system_.StateDigest(); }

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

void Append(std::vector<check::Violation>* violations, std::vector<check::Violation> more) {
  violations->insert(violations->end(), more.begin(), more.end());
}

// --- the shared case runner ---
//
// SystemRunner<Driver> is the one CaseRunner for every model system. It
// owns the system, the partition script, the coverage observer and the
// driver's per-run Step, and implements the snapshot and the verdict tail
// once. A driver supplies the rest:
//
//   using System          the ISystem adapter the runner owns
//   struct Step           per-run fields the events advance
//   Config(seed)          the adapter's cluster config
//   Universe(cluster)     the nodes the partition script cuts between
//   Setup(run)            everything before the first event, in order,
//                         including when the observer starts
//   ApplyEvent(run, ev)   one test event
//   Check(run)            heal, settle, final reads, the system's checkers
//
// The runner holds its driver const, so every per-run field lives in Step,
// which the snapshot carries: forked runs cannot miss driver state.

// The live parts of a run a driver's hooks act on.
template <typename Cluster, typename Step>
struct Live {
  Cluster& cluster;
  PartitionScript& script;
  StateObserver& observer;
  Step& s;
};

template <typename Driver>
class SystemRunner final : public CaseRunner {
 public:
  SystemRunner(const Driver& driver, uint64_t seed)
      : driver_(driver),
        system_(driver_.Config(seed)),
        script_(system_.Env(), driver_.Universe(system_.cluster())),
        observer_(system_, system_.Env().simulator().Trace()) {
    driver_.Setup(Parts());
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    driver_.ApplyEvent(Parts(), event);
    observer_.Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    result.violations = driver_.Check(Parts());
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      Append(&result.violations, check::CheckCascades(trace));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_.Report();
    result.coverage = observer_.Finish();
    return result;
  }

  std::unique_ptr<SystemState> Snapshot() const override {
    std::unique_ptr<SystemState> system = system_.Snapshot();
    if (system == nullptr) {
      return nullptr;
    }
    return sim::MakeValueSnapshot<SystemState>(
        State{std::move(system), script_.CaptureState(), observer_.CaptureState(), s_});
  }

  void Restore(const SystemState& state) override {
    const State& saved = sim::SnapshotValue<State>(state);
    system_.Restore(*saved.system);
    script_.RestoreState(saved.script);
    observer_.RestoreState(saved.observer);
    s_ = saved.step;
  }

 private:
  using Step = typename Driver::Step;

  // A runner's snapshot is one value. Each driver's Step is a distinct
  // type, so restoring another system's snapshot throws.
  struct State {
    std::unique_ptr<SystemState> system;
    PartitionScript::State script;
    StateObserver::State observer;
    Step step;
  };

  typename Driver::Run Parts() { return {system_.cluster(), script_, observer_, s_}; }

  const Driver driver_;
  typename Driver::System system_;
  PartitionScript script_;
  StateObserver observer_;
  Step s_;
};

template <typename Driver>
RunnerFactory RunnerFactoryFor(Driver driver) {
  return [driver = std::move(driver)](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<SystemRunner<Driver>>(driver, seed);
  };
}

// --- per-system drivers ---

constexpr int kMinorityClient = 0;
constexpr int kMajorityClient = 1;

// The end of a KV or queue case: the studied partitions last minutes to
// hours, so let the system run its failure handling (elections, step-downs)
// before the heal, so that latent damage — e.g. asynchronously replicated
// writes stranded on a deposed leader — manifests. Then settle the healed
// cluster and observe it.
template <typename Run>
void SettleAndHeal(const Run& run) {
  if (run.script.partitioned()) {
    run.cluster.Settle(sim::Milliseconds(800));
    run.script.Heal();
  }
  run.cluster.Settle(sim::Seconds(1));
  run.observer.Observe();
}

std::vector<check::Violation> KvViolations(const check::History& history) {
  std::vector<check::Violation> violations = check::CheckDirtyReads(history);
  Append(&violations, check::CheckDataLoss(history));
  Append(&violations, check::CheckReappearance(history));
  Append(&violations, check::CheckStaleReads(history));
  return violations;
}

class PbkvDriver {
 public:
  using System = PbkvSystem;
  struct Step {
    bool slept_for_election = false;
    int value_counter = 0;
  };
  using Run = Live<pbkv::Cluster, Step>;

  explicit PbkvDriver(const pbkv::Options& options) : options_(options) {}

  pbkv::Cluster::Config Config(uint64_t seed) const {
    pbkv::Cluster::Config config;
    config.options = options_;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  net::Group Universe(const pbkv::Cluster& cluster) const { return cluster.server_ids(); }

  void Setup(const Run& run) const {
    run.cluster.Settle(sim::Milliseconds(500));
    run.observer.Start();
    run.cluster.client(kMinorityClient).set_allow_redirect(false);
    run.cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    run.cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
  }

  void ApplyEvent(const Run& run, const TestEvent& event) const {
    switch (event.kind) {
      case EventKind::kPartition:
        run.script.Partition(event.partition, PickIsolated(run.cluster, event.target));
        run.s.slept_for_election = false;
        break;
      case EventKind::kHeal:
        run.script.Heal();
        break;
      case EventKind::kWrite:
        run.cluster.Put(ClientFor(run, event.side), kKey,
                        "v" + std::to_string(++run.s.value_counter));
        break;
      case EventKind::kRead:
        run.cluster.Get(ClientFor(run, event.side), kKey);
        break;
      case EventKind::kDelete:
        run.cluster.Delete(ClientFor(run, event.side), kKey);
        break;
      case EventKind::kLock:
      case EventKind::kUnlock:
        break;  // pbkv has no locks; the locksvc driver covers those
    }
  }

  std::vector<check::Violation> Check(const Run& run) const {
    SettleAndHeal(run);
    run.cluster.client(kMajorityClient).set_contact(run.cluster.server_ids().front());
    run.cluster.client(kMajorityClient).set_allow_redirect(true);
    run.cluster.Get(kMajorityClient, kKey, /*final_read=*/true);
    return KvViolations(run.cluster.history());
  }

 private:
  static constexpr const char* kKey = "k";

  // Picks the node the partition isolates.
  static net::NodeId PickIsolated(const pbkv::Cluster& cluster, IsolationTarget target) {
    if (target == IsolationTarget::kLeader) {
      const net::NodeId primary = cluster.FindPrimary();
      if (primary != net::kInvalidNode) {
        return primary;
      }
    }
    // "Any replica": a fixed non-initial-leader replica keeps runs comparable.
    return cluster.server_ids().back();
  }

  static int ClientFor(const Run& run, Side side) {
    pbkv::Cluster& cluster = run.cluster;
    if (side == Side::kMinority && run.script.partitioned()) {
      // Section 5.2: events on the old leader's side must be invoked right
      // after the partition, before it steps down — no sleep.
      cluster.client(kMinorityClient).set_contact(run.script.isolated());
      return kMinorityClient;
    }
    if (run.script.partitioned() && !run.s.slept_for_election) {
      // ...while on the majority side, the test sleeps until a new leader
      // is elected (the NEAT tests' SLEEP_LEADER_ELECTION_PERIOD).
      cluster.Settle(sim::Milliseconds(600));
      run.s.slept_for_election = true;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (run.script.partitioned()) {
      for (net::NodeId node : cluster.server_ids()) {
        if (node != run.script.isolated()) {
          contact = node;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  pbkv::Options options_;
};

class LocksvcDriver {
 public:
  using System = LocksvcSystem;
  struct Step {};  // no per-step fields; the snapshot still gets its own type
  using Run = Live<locksvc::Cluster, Step>;

  explicit LocksvcDriver(const locksvc::Options& options) : options_(options) {}

  locksvc::Cluster::Config Config(uint64_t seed) const {
    locksvc::Cluster::Config config;
    config.options = options_;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  net::Group Universe(const locksvc::Cluster& cluster) const { return cluster.server_ids(); }

  void Setup(const Run& run) const {
    run.cluster.Settle(sim::Milliseconds(300));
    run.observer.Start();
    run.cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    run.cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
  }

  void ApplyEvent(const Run& run, const TestEvent& event) const {
    switch (event.kind) {
      case EventKind::kPartition:
        run.script.Partition(event.partition, Isolated(run.cluster));
        // Let the flawed views shrink, as the Ignite failures require.
        run.cluster.Settle(sim::Milliseconds(400));
        break;
      case EventKind::kHeal:
        run.script.Heal();
        break;
      case EventKind::kLock:
        run.cluster.Lock(ClientFor(run, event.side), kLock);
        break;
      case EventKind::kUnlock:
        run.cluster.Unlock(ClientFor(run, event.side), kLock);
        break;
      default:
        break;  // the lock service has no KV surface
    }
  }

  std::vector<check::Violation> Check(const Run& run) const {
    run.script.Heal();
    run.cluster.Settle(sim::Seconds(1));
    run.observer.Observe();
    return check::CheckBrokenLocks(run.cluster.history());
  }

 private:
  static constexpr const char* kLock = "L";

  // The partition victim, the same in every run.
  static net::NodeId Isolated(const locksvc::Cluster& cluster) {
    return cluster.server_ids().back();
  }

  static int ClientFor(const Run& run, Side side) {
    locksvc::Cluster& cluster = run.cluster;
    if (side == Side::kMinority && run.script.partitioned()) {
      cluster.client(kMinorityClient).set_contact(Isolated(cluster));
      return kMinorityClient;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (run.script.partitioned() && contact == Isolated(cluster)) {
      contact = cluster.server_ids()[1];
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  locksvc::Options options_;
};

class RaftKvDriver {
 public:
  using System = RaftKvSystem;
  struct Step {
    net::NodeId initial_leader = net::kInvalidNode;  // elected during setup
    // The nodes cut off by the current partition; minority-side client
    // events contact its first member.
    net::Group minority_side;
    bool slept_for_election = false;
    int value_counter = 0;
  };
  using Run = Live<raftkv::Cluster, Step>;

  explicit RaftKvDriver(const raftkv::Options& options) : options_(options) {}

  raftkv::Cluster::Config Config(uint64_t seed) const {
    raftkv::Cluster::Config config;
    config.options = options_;
    config.num_servers = 5;  // the #5289 topology needs an orphaned pair
    config.num_clients = 3;
    config.seed = seed;
    return config;
  }

  net::Group Universe(const raftkv::Cluster& cluster) const { return cluster.server_ids(); }

  void Setup(const Run& run) const {
    run.s.initial_leader = run.cluster.WaitForLeader();
    run.observer.Start();
    run.cluster.client(kMinorityClient).set_allow_redirect(false);
    run.cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(800));
    run.cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(800));
    run.cluster.client(kAdminClient).set_allow_redirect(false);
    run.cluster.client(kAdminClient).set_op_timeout(sim::Milliseconds(800));
  }

  void ApplyEvent(const Run& run, const TestEvent& event) const {
    raftkv::Cluster& cluster = run.cluster;
    switch (event.kind) {
      case EventKind::kPartition: {
        const net::Group& servers = cluster.server_ids();
        net::NodeId leader = run.s.initial_leader;
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
          run.script.PartitionGroups(PartitionKind::kPartial, orphaned, keep);
          run.s.minority_side = orphaned;
          cluster.Settle(sim::Milliseconds(100));
          cluster.client(kAdminClient).set_contact(leader);
          cluster.ChangeMembers(kAdminClient, keep);
          cluster.Settle(sim::Seconds(1));
        } else {
          const net::NodeId isolated =
              event.target == IsolationTarget::kLeader ? leader : servers.back();
          run.script.Partition(event.partition, isolated);
          run.s.minority_side = {isolated};
        }
        run.s.slept_for_election = false;
        break;
      }
      case EventKind::kHeal:
        run.script.Heal();
        break;
      case EventKind::kWrite:
        cluster.Put(ClientFor(run, event.side), kKey,
                    "v" + std::to_string(++run.s.value_counter));
        break;
      case EventKind::kRead:
        cluster.Get(ClientFor(run, event.side), kKey);
        break;
      case EventKind::kDelete:
        cluster.Delete(ClientFor(run, event.side), kKey);
        break;
      case EventKind::kLock:
      case EventKind::kUnlock:
        break;  // no lock surface
    }
  }

  std::vector<check::Violation> Check(const Run& run) const {
    SettleAndHeal(run);
    run.cluster.client(kMajorityClient).set_contact(run.cluster.server_ids().front());
    run.cluster.Get(kMajorityClient, kKey, /*final_read=*/true);

    const check::History& history = run.cluster.history();
    std::vector<check::Violation> violations = KvViolations(history);
    const check::LinearizabilityResult linearizable = check::CheckLinearizable(history);
    if (!linearizable.linearizable) {
      check::Violation violation;
      violation.impact = "non-linearizable";
      violation.description = linearizable.reason;
      violations.push_back(std::move(violation));
    }
    return violations;
  }

 private:
  static constexpr int kAdminClient = 2;
  static constexpr const char* kKey = "k";

  static int ClientFor(const Run& run, Side side) {
    raftkv::Cluster& cluster = run.cluster;
    const net::Group& minority = run.s.minority_side;
    if (side == Side::kMinority && run.script.partitioned() && !minority.empty()) {
      cluster.client(kMinorityClient).set_contact(minority.front());
      return kMinorityClient;
    }
    if (run.script.partitioned() && !run.s.slept_for_election) {
      cluster.Settle(sim::Milliseconds(700));
      run.s.slept_for_election = true;
    }
    net::NodeId contact = run.s.initial_leader;
    for (const net::NodeId leader : cluster.Leaders()) {
      if (std::find(minority.begin(), minority.end(), leader) == minority.end()) {
        contact = leader;
        break;
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  raftkv::Options options_;
};

class MqueueDriver {
 public:
  using System = MqueueSystem;
  struct Step {
    bool slept_for_takeover = false;
    int value_counter = 0;
  };
  using Run = Live<mqueue::Cluster, Step>;

  explicit MqueueDriver(const mqueue::Options& options) : options_(options) {}

  mqueue::Cluster::Config Config(uint64_t seed) const {
    mqueue::Cluster::Config config;
    config.options = options_;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  // The partition universe includes the coordination service, which always
  // rides the majority side: an isolated master's session expires there
  // and the survivors elect a replacement (Figure 6).
  net::Group Universe(const mqueue::Cluster& cluster) const {
    net::Group universe = cluster.broker_ids();
    universe.push_back(cluster.zk_id());
    return universe;
  }

  void Setup(const Run& run) const {
    run.cluster.Settle(sim::Milliseconds(500));  // first master election via the registry
    run.observer.Start();
    run.cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    run.cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
    // One fully replicated message before any fault: partition-first pruning
    // leaves no room for a pre-partition enqueue inside the case, but the
    // double-dequeue flaw needs a message both sides of the cut believe they
    // hold.
    run.cluster.Send(kMajorityClient, kQueue, "m0");
    run.cluster.Settle(sim::Milliseconds(300));
  }

  void ApplyEvent(const Run& run, const TestEvent& event) const {
    mqueue::Cluster& cluster = run.cluster;
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
        run.script.Partition(event.partition, isolated);
        run.s.slept_for_takeover = false;
        break;
      }
      case EventKind::kHeal:
        run.script.Heal();
        break;
      case EventKind::kWrite:
        cluster.Send(ClientFor(run, event.side), kQueue,
                     "m" + std::to_string(++run.s.value_counter));
        break;
      case EventKind::kRead:
        cluster.Receive(ClientFor(run, event.side), kQueue);
        break;
      default:
        break;  // no KV/lock surface
    }
  }

  std::vector<check::Violation> Check(const Run& run) const {
    mqueue::Cluster& cluster = run.cluster;
    SettleAndHeal(run);

    // Drain the healed cluster's queue so the lost-message checker sees the
    // final state; drained values also complete the double-dequeue pattern.
    net::NodeId master = cluster.MasterPerRegistry();
    if (master == net::kInvalidNode) {
      master = cluster.broker_ids().front();
    }
    cluster.client(kMajorityClient).set_contact(master);
    for (int i = 0; i < 8; ++i) {
      const check::Operation drained =
          cluster.Receive(kMajorityClient, kQueue, /*final_drain=*/true);
      if (drained.status != check::OpStatus::kOk || drained.value.empty()) {
        break;
      }
    }
    run.observer.Observe();

    const check::History& history = cluster.history();
    std::vector<check::Violation> violations = check::CheckDoubleDequeue(history);
    Append(&violations, check::CheckLostMessages(history));
    return violations;
  }

 private:
  static constexpr const char* kQueue = "q";

  static int ClientFor(const Run& run, Side side) {
    mqueue::Cluster& cluster = run.cluster;
    const net::NodeId isolated = run.script.isolated();
    if (side == Side::kMinority && run.script.partitioned()) {
      cluster.client(kMinorityClient).set_contact(isolated);
      return kMinorityClient;
    }
    if (run.script.partitioned() && !run.s.slept_for_takeover) {
      // Wait out the session timeout so the surviving brokers take over.
      cluster.Settle(sim::Milliseconds(800));
      run.s.slept_for_takeover = true;
    }
    net::NodeId contact = cluster.MasterPerRegistry();
    if (contact == net::kInvalidNode || contact == isolated) {
      for (const net::NodeId broker : cluster.broker_ids()) {
        if (broker != isolated) {
          contact = broker;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  mqueue::Options options_;
};

}  // namespace

RunnerFactory PbkvRunnerFactory(const pbkv::Options& options) {
  return RunnerFactoryFor(PbkvDriver(options));
}

RunnerFactory LocksvcRunnerFactory(const locksvc::Options& options) {
  return RunnerFactoryFor(LocksvcDriver(options));
}

RunnerFactory RaftKvRunnerFactory(const raftkv::Options& options) {
  return RunnerFactoryFor(RaftKvDriver(options));
}

RunnerFactory MqueueRunnerFactory(const mqueue::Options& options) {
  return RunnerFactoryFor(MqueueDriver(options));
}

CaseExecutor PbkvCaseExecutor(const pbkv::Options& options) {
  return ReplayExecutor(PbkvRunnerFactory(options));
}

CaseExecutor LocksvcCaseExecutor(const locksvc::Options& options) {
  return ReplayExecutor(LocksvcRunnerFactory(options));
}

CaseExecutor RaftKvCaseExecutor(const raftkv::Options& options) {
  return ReplayExecutor(RaftKvRunnerFactory(options));
}

CaseExecutor MqueueCaseExecutor(const mqueue::Options& options) {
  return ReplayExecutor(MqueueRunnerFactory(options));
}

}  // namespace neat
