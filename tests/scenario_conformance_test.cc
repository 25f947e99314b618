// Byte-identity of the shipped scenario corpus against the per-system
// executors. Each of the four ported reproductions (tests/scenarios/*.scn)
// must produce, through the scenario DSL, exactly the campaign the
// per-system *CaseExecutor produces: same verdicts, same traces, same
// coverage, same failure signatures — pinned by comparing
// scenario::CampaignDigest of both sweeps. This is the compilation
// contract of docs/DESIGN.md: the DSL adds a parser in front of the
// existing execution stack, never a different execution.

#include <string>

#include <gtest/gtest.h>

#include "neat/adapters.h"
#include "neat/campaign.h"
#include "scenario/executor.h"
#include "scenario/parser.h"

namespace scenario {
namespace {

Scenario Load(const std::string& file) {
  const ParseResult parsed = ParseFile(std::string(SCENARIO_DIR) + "/" + file);
  EXPECT_TRUE(parsed.ok) << FormatDiagnostics(parsed, file);
  return parsed.scenario;
}

// The legacy sweep for one (scenario, executor) pair: the same generator
// alphabet, pruning, and campaign dimensions the .scn file declares, run
// through the hand-written per-system CaseExecutor.
std::string LegacyDigest(const Scenario& scn, const neat::CaseExecutor& executor) {
  neat::CampaignOptions options;
  options.threads = scn.campaign.threads;
  options.seeds = scn.campaign.seeds;
  const neat::CampaignResult result = neat::RunCampaign(
      ScenarioGenerator(scn), scn.campaign.max_length, ScenarioPruning(scn), executor, options);
  return CampaignDigest(result);
}

TEST(ScenarioConformance, PbkvPaperSuiteMatchesLegacyExecutor) {
  const Scenario scn = Load("pbkv_paper_suite.scn");
  const RunOutcome flawed = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(flawed.passed);
  EXPECT_EQ(flawed.digest, LegacyDigest(scn, neat::PbkvCaseExecutor(pbkv::VoltDbOptions())));
  const RunOutcome correct = RunScenarioVariant(scn, Variant::kCorrect);
  EXPECT_TRUE(correct.passed);
  EXPECT_EQ(correct.digest, LegacyDigest(scn, neat::PbkvCaseExecutor(pbkv::CorrectOptions())));
}

TEST(ScenarioConformance, LocksvcDoubleLockingMatchesLegacyExecutor) {
  const Scenario scn = Load("locksvc_double_locking.scn");
  const RunOutcome flawed = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(flawed.passed);
  EXPECT_EQ(flawed.digest,
            LegacyDigest(scn, neat::LocksvcCaseExecutor(locksvc::IgniteOptions())));
  const RunOutcome correct = RunScenarioVariant(scn, Variant::kCorrect);
  EXPECT_TRUE(correct.passed);
  EXPECT_EQ(correct.digest,
            LegacyDigest(scn, neat::LocksvcCaseExecutor(locksvc::CorrectOptions())));
}

TEST(ScenarioConformance, RaftKvMembershipMatchesLegacyExecutor) {
  const Scenario scn = Load("raftkv_membership_5289.scn");
  const RunOutcome flawed = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(flawed.passed);
  EXPECT_EQ(flawed.digest,
            LegacyDigest(scn, neat::RaftKvCaseExecutor(raftkv::RethinkDbOptions())));
  const RunOutcome correct = RunScenarioVariant(scn, Variant::kCorrect);
  EXPECT_TRUE(correct.passed);
  EXPECT_EQ(correct.digest,
            LegacyDigest(scn, neat::RaftKvCaseExecutor(raftkv::CorrectOptions())));
}

TEST(ScenarioConformance, MqueueDoubleDequeueMatchesLegacyExecutor) {
  const Scenario scn = Load("mqueue_double_dequeue.scn");
  const RunOutcome flawed = RunScenarioVariant(scn, Variant::kFlawed);
  EXPECT_TRUE(flawed.passed);
  EXPECT_EQ(flawed.digest,
            LegacyDigest(scn, neat::MqueueCaseExecutor(mqueue::ActiveMqOptions())));
  const RunOutcome correct = RunScenarioVariant(scn, Variant::kCorrect);
  EXPECT_TRUE(correct.passed);
  EXPECT_EQ(correct.digest,
            LegacyDigest(scn, neat::MqueueCaseExecutor(mqueue::CorrectOptions())));
}

// Absolute digests of the paper-pruned len <= 3 sweep at seed 1, per system
// and variant, through the per-system executors. Every other byte-identity
// test compares two paths that share the runner; these constants pin the
// runner itself, so a behaviour change on both sides still fails here.
struct GoldenSweep {
  const char* file;  // the .scn whose alphabet the sweep uses
  neat::CaseExecutor flawed;
  neat::CaseExecutor correct;
  const char* flawed_digest;
  const char* correct_digest;
};

std::string PinnedSweepDigest(const Scenario& scn, const neat::CaseExecutor& executor) {
  neat::CampaignOptions options;
  options.threads = 1;
  options.seeds = 1;
  const neat::CampaignResult result =
      neat::RunCampaign(ScenarioGenerator(scn), /*max_length=*/3, neat::PaperPruning(), executor,
                        options);
  return CampaignDigest(result);
}

TEST(Golden, PaperSuiteCampaignDigestsArePinned) {
  const GoldenSweep sweeps[] = {
      {"pbkv_paper_suite.scn", neat::PbkvCaseExecutor(pbkv::VoltDbOptions()),
       neat::PbkvCaseExecutor(pbkv::CorrectOptions()),
       "e85d64c1d2b50659", "7948cf24fa99f5c6"},
      {"raftkv_membership_5289.scn", neat::RaftKvCaseExecutor(raftkv::RethinkDbOptions()),
       neat::RaftKvCaseExecutor(raftkv::CorrectOptions()),
       "787933708e883514", "9f7964cedff3ef92"},
      {"locksvc_double_locking.scn", neat::LocksvcCaseExecutor(locksvc::IgniteOptions()),
       neat::LocksvcCaseExecutor(locksvc::CorrectOptions()),
       "1c41c6b68fc42781", "f057877d179ab3ad"},
      {"mqueue_double_dequeue.scn", neat::MqueueCaseExecutor(mqueue::ActiveMqOptions()),
       neat::MqueueCaseExecutor(mqueue::CorrectOptions()),
       "80cf5e780dbdac63", "ef1c82bce96f6c8f"},
  };
  for (const GoldenSweep& sweep : sweeps) {
    const Scenario scn = Load(sweep.file);
    EXPECT_EQ(PinnedSweepDigest(scn, sweep.flawed), sweep.flawed_digest) << sweep.file;
    EXPECT_EQ(PinnedSweepDigest(scn, sweep.correct), sweep.correct_digest) << sweep.file;
  }
}

}  // namespace
}  // namespace scenario
