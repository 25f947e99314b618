// Scenario DSL tests: parser IR and diagnostics, executor identity with
// the legacy machinery, and determinism of message-level faults across
// thread counts and under snapshot/fork replay. The shipped corpus itself
// is exercised by scenario_corpus_test.cc; byte-identity of the four
// ported reproductions by scenario_conformance_test.cc.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/fork.h"
#include "scenario/executor.h"
#include "scenario/parser.h"

namespace scenario {
namespace {

using neat::EventKind;
using neat::IsolationTarget;
using neat::PartitionKind;
using neat::Side;

Scenario MustParse(const std::string& text) {
  const ParseResult parsed = Parse(text);
  EXPECT_TRUE(parsed.ok) << FormatDiagnostics(parsed);
  return parsed.scenario;
}

// --- parser: IR construction ---

TEST(ScenarioParser, ParsesRunScenarioIntoSteps) {
  const Scenario scn = MustParse(R"(
scenario "full" {
  system mqueue
  preset activemq
  seed 7
  causal
  inject drop "mqueue.ReplOp" limit 3 from 1 to 2

  run {
    partition complete leader
    write minority
    read
    phase "failover" {
      crash 1 2
      sleep 800ms
      restart 1
    }
    inject delay "mqueue.ReplAck" by 250us
    inject reorder "zk.Ping"
    clear-faults
    heal
  }

  expect flawed {
    violation "double dequeue"
  }
}
)");
  EXPECT_EQ(scn.name, "full");
  EXPECT_EQ(scn.system, "mqueue");
  EXPECT_EQ(scn.preset, "activemq");
  EXPECT_EQ(scn.seed, 7u);
  EXPECT_TRUE(scn.causal);
  EXPECT_FALSE(scn.campaign.present);
  EXPECT_TRUE(scn.has_run);

  ASSERT_EQ(scn.ambient_faults.size(), 1u);
  const net::FaultRule& ambient = scn.ambient_faults[0];
  EXPECT_EQ(ambient.type_name, "mqueue.ReplOp");
  EXPECT_EQ(ambient.action, net::FaultRule::Action::kDrop);
  EXPECT_EQ(ambient.limit, 3u);
  EXPECT_EQ(ambient.src, 1);
  EXPECT_EQ(ambient.dst, 2);

  ASSERT_EQ(scn.steps.size(), 12u);
  EXPECT_EQ(scn.steps[0].kind, Step::Kind::kEvent);
  EXPECT_EQ(scn.steps[0].event.kind, EventKind::kPartition);
  EXPECT_EQ(scn.steps[0].event.partition, PartitionKind::kComplete);
  EXPECT_EQ(scn.steps[0].event.target, IsolationTarget::kLeader);
  EXPECT_EQ(scn.steps[1].event.kind, EventKind::kWrite);
  EXPECT_EQ(scn.steps[1].event.side, Side::kMinority);
  EXPECT_EQ(scn.steps[2].event.kind, EventKind::kRead);
  EXPECT_EQ(scn.steps[2].event.side, Side::kMajority);  // the default side
  EXPECT_EQ(scn.steps[3].kind, Step::Kind::kPhaseBegin);
  EXPECT_EQ(scn.steps[3].phase, "failover");
  EXPECT_EQ(scn.steps[4].kind, Step::Kind::kCrash);
  EXPECT_EQ(scn.steps[4].nodes, (net::Group{1, 2}));
  EXPECT_EQ(scn.steps[5].kind, Step::Kind::kSleep);
  EXPECT_EQ(scn.steps[5].duration, sim::Milliseconds(800));
  EXPECT_EQ(scn.steps[6].kind, Step::Kind::kRestart);
  EXPECT_EQ(scn.steps[6].nodes, (net::Group{1}));
  EXPECT_EQ(scn.steps[7].kind, Step::Kind::kPhaseEnd);
  EXPECT_EQ(scn.steps[8].kind, Step::Kind::kInject);
  EXPECT_EQ(scn.steps[8].fault.action, net::FaultRule::Action::kDelay);
  EXPECT_EQ(scn.steps[8].fault.delay, sim::Microseconds(250));
  EXPECT_EQ(scn.steps[9].fault.action, net::FaultRule::Action::kReorder);
  EXPECT_EQ(scn.steps[9].fault.type_name, "zk.Ping");
  EXPECT_EQ(scn.steps[10].kind, Step::Kind::kClearFaults);
  EXPECT_EQ(scn.steps[11].event.kind, EventKind::kHeal);

  ASSERT_EQ(scn.expects.size(), 1u);
  EXPECT_EQ(scn.expects[0].variant, Variant::kFlawed);
  ASSERT_EQ(scn.expects[0].expectations.size(), 1u);
  EXPECT_EQ(scn.expects[0].expectations[0].kind, Expectation::Kind::kViolation);
  EXPECT_EQ(scn.expects[0].expectations[0].needle, "double dequeue");
}

TEST(ScenarioParser, CampaignDefaultsMatchTheGeneratorAlphabet) {
  const Scenario scn = MustParse(R"(
scenario "defaults" {
  system pbkv
  campaign {
  }
  expect flawed {
    clean
  }
}
)");
  const neat::TestCaseGenerator::Alphabet alphabet;  // neat's defaults
  EXPECT_TRUE(scn.campaign.present);
  EXPECT_EQ(scn.campaign.events, alphabet.client_events);
  EXPECT_EQ(scn.campaign.partitions, alphabet.partitions);
  EXPECT_EQ(scn.campaign.targets, alphabet.targets);
  EXPECT_EQ(scn.campaign.sides, alphabet.sides);
  EXPECT_EQ(scn.campaign.max_length, 3);
  EXPECT_TRUE(scn.campaign.paper_pruning);
  EXPECT_EQ(scn.campaign.seeds, 1);
  EXPECT_EQ(scn.campaign.threads, 1);
}

TEST(ScenarioParser, CampaignSettingsReplaceTheDefaults) {
  const Scenario scn = MustParse(R"(
scenario "custom" {
  system locksvc
  campaign {
    events lock unlock
    partitions complete
    targets any-replica
    sides majority
    max-length 2
    prune none
    seeds 2
    threads 4
  }
  expect flawed {
    clean
  }
}
)");
  EXPECT_EQ(scn.campaign.events,
            (std::vector<EventKind>{EventKind::kLock, EventKind::kUnlock}));
  EXPECT_EQ(scn.campaign.partitions, (std::vector<PartitionKind>{PartitionKind::kComplete}));
  EXPECT_EQ(scn.campaign.targets,
            (std::vector<IsolationTarget>{IsolationTarget::kAnyReplica}));
  EXPECT_EQ(scn.campaign.sides, (std::vector<Side>{Side::kMajority}));
  EXPECT_EQ(scn.campaign.max_length, 2);
  EXPECT_FALSE(scn.campaign.paper_pruning);
  EXPECT_EQ(scn.campaign.seeds, 2);
  EXPECT_EQ(scn.campaign.threads, 4);
}

// --- parser: diagnostics ---

TEST(ScenarioParser, ReportsLineAndColumnOfTheFirstError) {
  const ParseResult parsed = Parse(
      "scenario \"x\" {\n"
      "  system pbkv\n"
      "  run {\n"
      "    sleep forever\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(parsed.ok);
  ASSERT_EQ(parsed.diagnostics.size(), 1u);
  EXPECT_EQ(parsed.diagnostics[0].line, 4);
  EXPECT_EQ(parsed.diagnostics[0].column, 11);
}

TEST(ScenarioParser, UnknownSystemIsRejected) {
  const ParseResult parsed = Parse(
      "scenario \"x\" {\n"
      "  system zookeeper\n"
      "  run {\n"
      "    write\n"
      "  }\n"
      "  expect flawed {\n"
      "    clean\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(parsed.ok);
  ASSERT_EQ(parsed.diagnostics.size(), 1u);
  EXPECT_EQ(parsed.diagnostics[0].line, 2);
  EXPECT_NE(parsed.diagnostics[0].message.find("zookeeper"), std::string::npos);
}

TEST(ScenarioParser, FormatDiagnosticsRendersTheFilePrefix) {
  ParseResult result;
  result.diagnostics.push_back({3, 7, "boom"});
  EXPECT_EQ(FormatDiagnostics(result), "3:7: boom\n");
  EXPECT_EQ(FormatDiagnostics(result, "a.scn"), "a.scn:3:7: boom\n");
}

TEST(ScenarioParser, UnreadableFileIsAFileLevelDiagnostic) {
  const ParseResult parsed = ParseFile("/nonexistent/never.scn");
  ASSERT_FALSE(parsed.ok);
  ASSERT_EQ(parsed.diagnostics.size(), 1u);
  EXPECT_EQ(parsed.diagnostics[0].line, 0);
  EXPECT_EQ(parsed.diagnostics[0].column, 0);
}

// --- executor: identity with the legacy machinery ---

neat::TestCase DirtyReadCase() {
  neat::TestEvent partition;
  partition.kind = EventKind::kPartition;
  partition.partition = PartitionKind::kComplete;
  partition.target = IsolationTarget::kLeader;
  neat::TestEvent write;
  write.kind = EventKind::kWrite;
  write.side = Side::kMinority;
  neat::TestEvent read;
  read.kind = EventKind::kRead;
  read.side = Side::kMinority;
  return {partition, write, read};
}

const char* kDirtyReadRun = R"(
scenario "dirty-read" {
  system pbkv
  run {
    partition complete leader
    write minority
    read minority
  }
  expect flawed {
    violation "dirty read"
  }
}
)";

TEST(ScenarioExecutor, RunModeIsByteIdenticalToTheLegacyDirectedCase) {
  const Scenario scn = MustParse(kDirtyReadRun);
  const RunOutcome outcome = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(outcome.passed);
  const neat::ExecutionResult legacy =
      neat::PbkvCaseExecutor(pbkv::VoltDbOptions())(DirtyReadCase(), scn.seed);
  EXPECT_EQ(outcome.digest, ResultDigest(legacy));
  EXPECT_EQ(outcome.signature, neat::FailureSignature(legacy));
}

TEST(ScenarioExecutor, CaseExecutorIsByteIdenticalToTheLegacyExecutor) {
  const Scenario scn = MustParse(kDirtyReadRun);
  const neat::CaseExecutor executor = ScenarioCaseExecutor(scn, Variant::kFlawed);
  const neat::TestCase test_case = DirtyReadCase();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(ResultDigest(executor(test_case, seed)),
              ResultDigest(neat::PbkvCaseExecutor(pbkv::VoltDbOptions())(test_case, seed)));
  }
}

TEST(ScenarioExecutor, VariantWithoutAnExpectBlockTriviallyPasses) {
  const Scenario scn = MustParse(kDirtyReadRun);
  const RunOutcome outcome = RunScenarioVariant(scn, Variant::kCorrect);
  EXPECT_TRUE(outcome.passed);
  EXPECT_TRUE(outcome.expectations.empty());
}

// --- executor: the system/preset registry ---

TEST(ScenarioRegistry, UnknownPresetThrows) {
  Scenario scn;
  scn.system = "pbkv";
  scn.preset = "no-such-preset";
  EXPECT_FALSE(KnownPreset(scn.system, scn.preset));
  EXPECT_THROW(ScenarioRunnerFactory(scn, Variant::kFlawed), std::invalid_argument);
  EXPECT_THROW(ScenarioCaseExecutor(scn, Variant::kCorrect), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownSystemThrows) {
  Scenario scn;
  scn.system = "no-such-system";
  EXPECT_FALSE(KnownSystem(scn.system));
  EXPECT_THROW(ScenarioRunnerFactory(scn, Variant::kFlawed), std::invalid_argument);
  EXPECT_THROW(ScenarioCaseExecutor(scn, Variant::kCorrect), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryRegisteredPresetBuildsARunnerThatFinishes) {
  const std::vector<std::pair<std::string, std::string>> presets = RegisteredPresets();
  ASSERT_FALSE(presets.empty());
  for (const auto& [system, preset] : presets) {
    EXPECT_TRUE(KnownSystem(system)) << system;
    EXPECT_TRUE(KnownPreset(system, preset)) << system << "/" << preset;
    Scenario scn;
    scn.system = system;
    scn.preset = preset;
    for (const Variant variant : {Variant::kFlawed, Variant::kCorrect}) {
      const std::unique_ptr<neat::CaseRunner> runner =
          ScenarioRunnerFactory(scn, variant)(/*seed=*/1);
      ASSERT_NE(runner, nullptr) << system << "/" << preset;
      const neat::ExecutionResult result = runner->Finish(neat::TestCase{});
      EXPECT_EQ(result.trace, neat::FormatTestCase(neat::TestCase{})) << system << "/" << preset;
    }
  }
}

// --- message-level faults: determinism ---

const char* kAmbientFaultCampaign = R"(
scenario "ambient-drop" {
  system pbkv
  inject drop "pbkv.Replicate" limit 2
  campaign {
    max-length 2
    seeds 2
  }
  expect flawed {
    violation "dirty read"
  }
}
)";

TEST(ScenarioFaults, AmbientCampaignIsByteIdenticalAcrossThreadCounts) {
  Scenario serial = MustParse(kAmbientFaultCampaign);
  Scenario wide = serial;
  serial.campaign.threads = 1;
  wide.campaign.threads = 8;
  const RunOutcome a = RunScenarioVariant(serial, Variant::kFlawed);
  const RunOutcome b = RunScenarioVariant(wide, Variant::kFlawed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.cases_run, b.cases_run);
}

TEST(ScenarioFaults, AmbientRulesActuallyPerturbTheRuns) {
  const Scenario faulted = MustParse(kAmbientFaultCampaign);
  Scenario clean = faulted;
  clean.ambient_faults.clear();
  EXPECT_NE(RunScenarioVariant(faulted, Variant::kFlawed).digest,
            RunScenarioVariant(clean, Variant::kFlawed).digest);
}

void ExpectForkReplayIdentity(const std::string& text) {
  const ParseResult parsed = Parse(text);
  ASSERT_TRUE(parsed.ok) << FormatDiagnostics(parsed);
  const Scenario& scn = parsed.scenario;
  const neat::TestCaseGenerator generator = ScenarioGenerator(scn);
  const std::vector<neat::TestCase> suite =
      generator.EnumerateUpTo(scn.campaign.max_length, ScenarioPruning(scn));
  ASSERT_FALSE(suite.empty());
  const neat::CaseExecutor straight = ScenarioCaseExecutor(scn, Variant::kFlawed);
  const neat::CaseExecutor forked =
      neat::ForkingCaseExecutor(ScenarioRunnerFactory(scn, Variant::kFlawed));
  for (size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(ResultDigest(straight(suite[i], 1)), ResultDigest(forked(suite[i], 1)))
        << "case " << i << " of " << suite.size();
  }
}

TEST(ScenarioFaults, DropRuleIsByteIdenticalUnderForkReplay) {
  ExpectForkReplayIdentity(R"(
scenario "fork-drop" {
  system pbkv
  inject drop "pbkv.Replicate" limit 2
  campaign {
    max-length 2
  }
  expect flawed {
    clean
  }
}
)");
}

TEST(ScenarioFaults, DelayRuleIsByteIdenticalUnderForkReplay) {
  ExpectForkReplayIdentity(R"(
scenario "fork-delay" {
  system pbkv
  inject delay "pbkv.Replicate" by 300us limit 4
  campaign {
    max-length 2
  }
  expect flawed {
    clean
  }
}
)");
}

TEST(ScenarioFaults, ReorderRuleIsByteIdenticalUnderForkReplay) {
  ExpectForkReplayIdentity(R"(
scenario "fork-reorder" {
  system pbkv
  inject reorder "pbkv.ReplicateAck" limit 2
  campaign {
    max-length 2
  }
  expect flawed {
    clean
  }
}
)");
}

// --- message-level faults: scoping semantics ---

// A drop rule injected inside a phase dies with the phase: the dequeue
// replicates normally afterwards, so the failover does not re-deliver
// (contrast tests/scenarios/mqueue_repl_blackhole.scn, where the ambient
// rule persists and the flawed variant double-dequeues).
TEST(ScenarioFaults, PhaseScopedRulesAreRemovedAtPhaseEnd) {
  const Scenario scn = MustParse(R"(
scenario "phase-scoped" {
  system mqueue
  preset activemq
  run {
    phase "armed" {
      inject drop "mqueue.ReplOp"
    }
    read
    crash 1
    sleep 800ms
  }
  expect flawed {
    clean
  }
}
)");
  const RunOutcome outcome = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(outcome.passed) << outcome.signature;
}

// clear-faults removes ambient rules too.
TEST(ScenarioFaults, ClearFaultsRemovesAmbientRules) {
  const Scenario scn = MustParse(R"(
scenario "cleared" {
  system mqueue
  preset activemq
  inject drop "mqueue.ReplOp"
  run {
    clear-faults
    read
    crash 1
    sleep 800ms
  }
  expect flawed {
    clean
  }
}
)");
  const RunOutcome outcome = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(outcome.passed) << outcome.signature;
}

}  // namespace
}  // namespace scenario
