// Snapshot/fork execution of test cases (prefix reuse).
//
// Campaign suites are massively redundant: a pruned enumeration walks the
// space in DFS order, guided rounds mutate corpus entries near their tails,
// and ddmin probes differ from each other by one dropped chunk — so
// consecutive cases usually share a long event prefix. The classic executor
// re-builds a fresh cluster and re-executes that shared prefix for every
// case. The fork executor instead keeps one live runner per seed and a
// bounded cache of whole-system snapshots keyed by case-prefix digest; a
// new case restores the snapshot of its longest cached prefix and executes
// only the suffix. Because snapshots capture the complete deterministic
// state (simulator clock/sequence/RNG/pending events, network, partition
// rules, process and history state — see neat/system.h), the forked run is
// byte-identical to a full replay: same verdict, same trace, same coverage.
//
// Snapshots are only taken at quiescent points — between test events, with
// the simulator stopped — and only restored into the runner instance that
// produced them (process closures capture `this` of that instance's
// processes; the snapshot stores event ids, never callbacks).

#ifndef NEAT_FORK_H_
#define NEAT_FORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "neat/execution.h"
#include "neat/system.h"
#include "neat/testgen.h"

namespace neat {

// A live system executing one test case event by event. Cutting a run into
// construct / ApplyEvent / Finish is what gives the fork executor a place
// to capture state between events: the constructor performs setup (build
// the cluster, settle, configure clients), ApplyEvent applies exactly one
// test event, and Finish runs the post-sequence phase (heal, settle, final
// verification reads, checkers) and produces the verdict. Finish perturbs
// the system — callers must Restore before applying further events. The
// model systems' runners are SystemRunner instances (neat/adapters.cc);
// ReplayExecutor and the fork executor below are the two ways to drive one.
class CaseRunner {
 public:
  virtual ~CaseRunner() = default;

  // The environment the system under test runs in (the fork executor
  // enables simulator event retention through it before snapshotting).
  virtual TestEnv& Env() = 0;

  // The live system under test, for post-Finish status probes (the
  // scenario DSL's status-converges expectation). Null when the runner
  // does not expose one.
  virtual ISystem* System() { return nullptr; }

  // Applies one test event to the live system.
  virtual void ApplyEvent(const TestEvent& event) = 0;

  // Post-sequence phase: heal, settle, final verification, checkers. The
  // full original case is passed for the result's trace field.
  virtual ExecutionResult Finish(const TestCase& test_case) = 0;

  // Whole-run state at a quiescent point: the system snapshot plus the
  // runner's own step state (installed partition, election-sleep flags,
  // value counters, the coverage observer). Const by contract — capturing
  // must not perturb the run (detlint's snapshot-nonconst rule).
  virtual std::unique_ptr<SystemState> Snapshot() const = 0;

  // Rewinds to a state previously captured by Snapshot() on this runner.
  virtual void Restore(const SystemState& state) = 0;
};

// Builds a fresh runner (fully booted and settled) for one seed. Factories
// capture only immutable configuration; the fork executor calls them once
// per (seed, eviction) rather than once per case.
using RunnerFactory = std::function<std::unique_ptr<CaseRunner>(uint64_t seed)>;

struct ForkOptions {
  // Per-seed snapshot cache capacity (LRU by use; the post-setup root
  // snapshot is pinned and does not count against the bound).
  size_t snapshot_cache = 64;
  // Live runners kept across seeds (LRU). Campaigns usually sweep one seed
  // at a time, so a small bound suffices.
  size_t runner_cache = 4;
};

struct ForkStats {
  uint64_t cases_run = 0;
  uint64_t fresh_runners = 0;     // full cluster constructions
  uint64_t forked_runs = 0;       // runs resumed from a non-empty prefix
  uint64_t events_applied = 0;    // suffix events actually executed
  uint64_t events_forked_over = 0;  // prefix events reused from a snapshot
  uint64_t snapshots_taken = 0;
  uint64_t snapshots_evicted = 0;      // LRU-bound and branch-teardown drops
  uint64_t snapshots_invalidated = 0;  // dropped as descendants of a restore
};

// A stateful executor: Run has the same observable contract as the classic
// CaseExecutor (same (case, seed) -> same result), but reuses snapshot
// prefixes across calls. NOT thread-safe — give each campaign worker its
// own instance (SessionFactory in neat/execution.h).
class ForkingExecutor {
 public:
  explicit ForkingExecutor(RunnerFactory factory, ForkOptions options = ForkOptions{});

  ExecutionResult Run(const TestCase& test_case, uint64_t seed);

  const ForkStats& stats() const { return stats_; }

 private:
  struct CachedSnapshot {
    TestCase prefix;  // verified on lookup; digests alone could collide
    std::unique_ptr<SystemState> state;
    uint64_t last_used = 0;
    // Capture-order stamp. Snapshots reference positions in the branch's
    // simulator history (trace sizes, event sequence numbers), so the cache
    // is only coherent as a chain of ancestors of the live state: restoring
    // a snapshot invalidates every snapshot captured after it (their
    // history is about to be rewritten by the new continuation).
    uint64_t birth = 0;
  };
  struct Branch {
    std::unique_ptr<CaseRunner> runner;
    bool forkable = false;  // the runner's Snapshot() returned non-null
    std::map<uint64_t, CachedSnapshot> snapshots;  // prefix digest -> state
    uint64_t last_used = 0;
  };

  Branch& BranchFor(uint64_t seed);
  void CacheSnapshot(Branch* branch, const TestCase& prefix, size_t length);

  RunnerFactory factory_;
  ForkOptions options_;
  std::map<uint64_t, Branch> branches_;  // by seed
  ForkStats stats_;
  uint64_t tick_ = 0;  // LRU clock: bumped per cache touch
};

// The classic full-replay executor: a fresh runner from `factory` per
// call, driven straight through the case. Stateless across calls, so it is
// safe to invoke concurrently from campaign workers.
CaseExecutor ReplayExecutor(RunnerFactory factory);

// Wraps a fork executor as a plain CaseExecutor (single-threaded use: the
// returned callable owns one ForkingExecutor). `stats`, when non-null,
// receives a copy of the executor's counters after every run.
CaseExecutor ForkingCaseExecutor(RunnerFactory factory, ForkOptions options = ForkOptions{},
                                 std::shared_ptr<ForkStats> stats = nullptr);

// A session factory for campaigns: every worker thread gets its own
// ForkingExecutor, so prefix reuse happens per worker with no shared
// mutable state (see CampaignOptions::sessions).
SessionFactory ForkingSessions(RunnerFactory factory, ForkOptions options = ForkOptions{});

}  // namespace neat

#endif  // NEAT_FORK_H_
