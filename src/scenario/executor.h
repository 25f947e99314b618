// Compiles a parsed Scenario onto the NEAT execution machinery.
//
// The compilation contract (docs/DESIGN.md): a scenario names a system and
// a variant; the executor resolves that pair to the same Options preset and
// RunnerFactory the hand-written reproductions use, so a DSL run with no
// message-level faults is byte-identical — same verdict, same trace, same
// coverage — to the corresponding per-system *CaseExecutor run
// (pinned by the conformance tests in tests/scenario_conformance_test.cc).
// Ambient fault rules are installed on the network right after the runner
// is built, before any step or generated case — and therefore before the
// fork executor's root snapshot, so forked runs inherit them.
//
// Campaign scenarios compile to (TestCaseGenerator, PruningRules,
// CampaignOptions) and sweep through neat::RunCampaign; run scenarios drive
// one runner through the step list and finish with the system's checkers.

#ifndef SCENARIO_EXECUTOR_H_
#define SCENARIO_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/fork.h"
#include "scenario/scenario.h"

namespace scenario {

// The system/preset registry the parser validates against and the executor
// compiles with (one table in executor.cc). An empty preset selects the
// system's default reproduction, its first registered preset: pbkv voltdb,
// raftkv rethinkdb, locksvc ignite, mqueue activemq.
bool KnownSystem(const std::string& system);
bool KnownPreset(const std::string& system, const std::string& preset);

// Every registered (system, preset) pair, in registry order.
std::vector<std::pair<std::string, std::string>> RegisteredPresets();

// The runner factory for one variant: the per-system RunnerFactory under
// the resolved options (preset for kFlawed, all-safety-knobs-on for
// kCorrect, causal_trace from the scenario), wrapped to install the
// scenario's ambient fault rules at construction time. Plugs into
// neat::ForkingExecutor / ForkingSessions unchanged. Throws
// std::invalid_argument for an unregistered (system, preset) pair.
neat::RunnerFactory ScenarioRunnerFactory(const Scenario& scenario, Variant variant);

// neat::ReplayExecutor over ScenarioRunnerFactory. With no ambient faults
// this is exactly the per-system *CaseExecutor.
neat::CaseExecutor ScenarioCaseExecutor(const Scenario& scenario, Variant variant);

// The generator and pruning rules a campaign scenario sweeps.
neat::TestCaseGenerator ScenarioGenerator(const Scenario& scenario);
neat::PruningRules ScenarioPruning(const Scenario& scenario);

struct ExpectationOutcome {
  Expectation expectation;
  bool passed = false;
  std::string detail;  // what was seen, when failed; empty when passed
};

// One variant's end-to-end result: the per-expectation verdicts plus the
// run's digest, so conformance tests can compare a DSL run against a
// legacy one without re-deriving either.
struct RunOutcome {
  Variant variant = Variant::kFlawed;
  bool passed = false;
  std::vector<ExpectationOutcome> expectations;
  std::string digest;     // ResultDigest (run mode) / CampaignDigest (campaign)
  std::string signature;  // run: FailureSignature; campaign: signatures joined
  uint64_t failures = 0;  // campaign: failing runs; run: violation count
  uint64_t cases_run = 0; // campaign mode only
};

// Executes one variant and evaluates the matching expect block (a variant
// with no block runs with zero expectations and trivially passes).
RunOutcome RunScenarioVariant(const Scenario& scenario, Variant variant);

// Executes every variant that has an expect block, in block order.
std::vector<RunOutcome> RunScenario(const Scenario& scenario);

// FNV-1a hex digests over everything observable in a run: verdict,
// violations, executed-event trace, coverage features, and the trace
// report (event counts, per-link drops, leadership timeline). Equal
// digests mean behaviourally identical runs — the byte-identity predicate
// of the conformance and determinism tests.
std::string ResultDigest(const neat::ExecutionResult& result);
std::string CampaignDigest(const neat::CampaignResult& result);

}  // namespace scenario

#endif  // SCENARIO_EXECUTOR_H_
