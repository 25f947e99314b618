#include "scenario/executor.h"

#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "neat/execution.h"

namespace scenario {
namespace {

// FNV-1a over a byte stream; strings are terminated with a 0 byte so that
// adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
class Fnv {
 public:
  void Mix(const std::string& text) {
    for (const char c : text) {
      MixByte(static_cast<uint8_t>(c));
    }
    MixByte(0);
  }
  void MixWord(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      MixByte(static_cast<uint8_t>((word >> (byte * 8)) & 0xff));
    }
  }
  std::string Hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return out.str();
  }

 private:
  void MixByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

// The runner factory for one variant of a preset: the preset's options for
// kFlawed, all safety knobs on for kCorrect, with the scenario's
// causal_trace.
template <auto Flawed, auto Correct, auto Factory>
neat::RunnerFactory Compile(Variant variant, bool causal) {
  auto options = variant == Variant::kCorrect ? Correct() : Flawed();
  options.causal_trace = causal;
  return Factory(options);
}

template <auto Flawed>
neat::RunnerFactory Pbkv(Variant variant, bool causal) {
  return Compile<Flawed, pbkv::CorrectOptions, neat::PbkvRunnerFactory>(variant, causal);
}

// The system/preset registry: one row per pair. A system's first row is
// its default, selected by an empty preset.
struct PresetRow {
  const char* system;
  const char* preset;
  neat::RunnerFactory (*compile)(Variant variant, bool causal);
};

constexpr PresetRow kPresets[] = {
    {"pbkv", "voltdb", Pbkv<pbkv::VoltDbOptions>},
    {"pbkv", "elasticsearch", Pbkv<pbkv::ElasticsearchOptions>},
    {"pbkv", "mongo-arbiter", Pbkv<pbkv::MongoArbiterOptions>},
    {"pbkv", "mongo-conflicting-criteria", Pbkv<pbkv::MongoConflictingCriteriaOptions>},
    {"pbkv", "async-replication", Pbkv<pbkv::AsyncReplicationOptions>},
    {"pbkv", "coordinator-routing", Pbkv<pbkv::CoordinatorRoutingOptions>},
    {"raftkv", "rethinkdb",
     Compile<raftkv::RethinkDbOptions, raftkv::CorrectOptions, neat::RaftKvRunnerFactory>},
    {"locksvc", "ignite",
     Compile<locksvc::IgniteOptions, locksvc::CorrectOptions, neat::LocksvcRunnerFactory>},
    {"mqueue", "activemq",
     Compile<mqueue::ActiveMqOptions, mqueue::CorrectOptions, neat::MqueueRunnerFactory>},
};

const PresetRow* FindPreset(const std::string& system, const std::string& preset) {
  for (const PresetRow& row : kPresets) {
    if (system == row.system && (preset.empty() || preset == row.preset)) {
      return &row;
    }
  }
  return nullptr;
}

std::string JoinImpacts(const std::vector<std::string>& impacts) {
  if (impacts.empty()) {
    return "none";
  }
  std::string joined;
  for (const std::string& impact : impacts) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += impact;
  }
  return joined;
}

bool AnyContains(const std::vector<std::string>& impacts, const std::string& needle) {
  for (const std::string& impact : impacts) {
    if (impact.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Judges one expectation against the run's violation impacts (run mode) or
// failure signatures (campaign mode). `status` carries the
// status-converges probe: unknown when the mode has no single end state.
enum class Status { kUnknown, kHealthy, kUnhealthy };

ExpectationOutcome Evaluate(const Expectation& expectation,
                            const std::vector<std::string>& impacts, Status status) {
  ExpectationOutcome outcome;
  outcome.expectation = expectation;
  switch (expectation.kind) {
    case Expectation::Kind::kClean:
      outcome.passed = impacts.empty();
      if (!outcome.passed) {
        outcome.detail = "expected a clean run; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kViolation:
      outcome.passed = AnyContains(impacts, expectation.needle);
      if (!outcome.passed) {
        outcome.detail = "expected a violation containing \"" + expectation.needle +
                         "\"; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kLinearizable:
      outcome.passed = !AnyContains(impacts, "non-linearizable");
      if (!outcome.passed) {
        outcome.detail = "expected a linearizable run; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kNoLostOps:
      outcome.passed = !AnyContains(impacts, "data loss");
      if (!outcome.passed) {
        outcome.detail = "expected no lost operations; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kNoCascade:
      outcome.passed = !AnyContains(impacts, "cascading failure");
      if (!outcome.passed) {
        outcome.detail = "expected no cascading failure; saw: " + JoinImpacts(impacts);
      }
      break;
    case Expectation::Kind::kStatusConverges:
      outcome.passed = status == Status::kHealthy;
      if (status == Status::kUnknown) {
        outcome.detail = "the runner exposes no system to probe";
      } else if (!outcome.passed) {
        outcome.detail = "system status did not converge after the run";
      }
      break;
  }
  return outcome;
}

const ExpectBlock* BlockFor(const Scenario& scenario, Variant variant) {
  for (const ExpectBlock& block : scenario.expects) {
    if (block.variant == variant) {
      return &block;
    }
  }
  return nullptr;
}

RunOutcome RunStepScenario(const Scenario& scenario, Variant variant) {
  RunOutcome outcome;
  outcome.variant = variant;

  const neat::RunnerFactory factory = ScenarioRunnerFactory(scenario, variant);
  std::unique_ptr<neat::CaseRunner> runner = factory(scenario.seed);
  neat::TestEnv& env = runner->Env();
  net::Network& network = env.network();
  sim::Simulator& simulator = env.simulator();

  // Fault rules injected inside a phase are scoped to it: the phase-end
  // marker removes them (releasing any held reorder message). Top-level
  // injects (no open phase) persist to the end of the run.
  std::vector<std::vector<net::FaultRuleId>> phase_faults;
  neat::TestCase applied;
  for (const Step& step : scenario.steps) {
    switch (step.kind) {
      case Step::Kind::kEvent:
        runner->ApplyEvent(step.event);
        applied.push_back(step.event);
        break;
      case Step::Kind::kCrash:
        env.Crash(step.nodes);
        break;
      case Step::Kind::kRestart:
        env.Restart(step.nodes);
        break;
      case Step::Kind::kSleep:
        env.Sleep(step.duration);
        break;
      case Step::Kind::kInject: {
        const net::FaultRuleId id = network.AddFaultRule(step.fault);
        if (!phase_faults.empty()) {
          phase_faults.back().push_back(id);
        }
        break;
      }
      case Step::Kind::kClearFaults:
        network.ClearFaultRules();
        break;
      case Step::Kind::kPhaseBegin:
        phase_faults.emplace_back();
        simulator.Trace().Append(simulator.Now(), "scenario", "phase", step.phase);
        break;
      case Step::Kind::kPhaseEnd:
        for (const net::FaultRuleId id : phase_faults.back()) {
          network.RemoveFaultRule(id);  // ignores ids a clear-faults already removed
        }
        phase_faults.pop_back();
        simulator.Trace().Append(simulator.Now(), "scenario", "phase-end", step.phase);
        break;
    }
  }
  const neat::ExecutionResult result = runner->Finish(applied);

  Status status = Status::kUnknown;
  const ExpectBlock* block = BlockFor(scenario, variant);
  bool wants_status = false;
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      wants_status |= expectation.kind == Expectation::Kind::kStatusConverges;
    }
  }
  if (wants_status) {
    neat::ISystem* system = runner->System();
    if (system != nullptr) {
      status = system->GetStatus() ? Status::kHealthy : Status::kUnhealthy;
    }
  }

  std::vector<std::string> impacts;
  impacts.reserve(result.violations.size());
  for (const check::Violation& violation : result.violations) {
    impacts.push_back(violation.impact);
  }

  outcome.passed = true;
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      ExpectationOutcome judged = Evaluate(expectation, impacts, status);
      outcome.passed = outcome.passed && judged.passed;
      outcome.expectations.push_back(std::move(judged));
    }
  }
  outcome.digest = ResultDigest(result);
  outcome.signature = neat::FailureSignature(result);
  outcome.failures = result.violations.size();
  return outcome;
}

RunOutcome RunCampaignScenario(const Scenario& scenario, Variant variant) {
  RunOutcome outcome;
  outcome.variant = variant;

  const neat::TestCaseGenerator generator = ScenarioGenerator(scenario);
  neat::CampaignOptions options;
  options.threads = scenario.campaign.threads;
  options.seeds = scenario.campaign.seeds;
  const neat::CampaignResult result =
      neat::RunCampaign(generator, scenario.campaign.max_length, ScenarioPruning(scenario),
                        ScenarioCaseExecutor(scenario, variant), options);

  // Failure signatures are '+'-joined impact sets, so the substring match
  // the expectations use works on them directly.
  std::vector<std::string> impacts;
  impacts.reserve(result.signature_counts.size());
  for (const auto& [signature, count] : result.signature_counts) {
    impacts.push_back(signature);
  }

  outcome.passed = true;
  const ExpectBlock* block = BlockFor(scenario, variant);
  if (block != nullptr) {
    for (const Expectation& expectation : block->expectations) {
      ExpectationOutcome judged = Evaluate(expectation, impacts, Status::kUnknown);
      outcome.passed = outcome.passed && judged.passed;
      outcome.expectations.push_back(std::move(judged));
    }
  }
  outcome.digest = CampaignDigest(result);
  outcome.signature = JoinImpacts(impacts);
  if (impacts.empty()) {
    outcome.signature.clear();
  }
  outcome.failures = result.failures;
  outcome.cases_run = result.cases_run;
  return outcome;
}

}  // namespace

const char* VariantName(Variant variant) {
  return variant == Variant::kFlawed ? "flawed" : "correct";
}

bool KnownSystem(const std::string& system) { return FindPreset(system, "") != nullptr; }

bool KnownPreset(const std::string& system, const std::string& preset) {
  return FindPreset(system, preset) != nullptr;
}

std::vector<std::pair<std::string, std::string>> RegisteredPresets() {
  std::vector<std::pair<std::string, std::string>> presets;
  for (const PresetRow& row : kPresets) {
    presets.emplace_back(row.system, row.preset);
  }
  return presets;
}

neat::RunnerFactory ScenarioRunnerFactory(const Scenario& scenario, Variant variant) {
  const PresetRow* row = FindPreset(scenario.system, scenario.preset);
  if (row == nullptr) {
    throw std::invalid_argument("unknown scenario system/preset \"" + scenario.system + "\"/\"" +
                                scenario.preset + "\"");
  }
  neat::RunnerFactory base = row->compile(variant, scenario.causal);
  if (scenario.ambient_faults.empty()) {
    return base;  // byte-identical to the per-system factory, closure and all
  }
  // Ambient faults are part of the environment, not the system config, so
  // both variants get them. Installed before the fork executor takes its
  // root snapshot, so forked runs inherit the rules and their match state.
  const std::vector<net::FaultRule> faults = scenario.ambient_faults;
  return [base = std::move(base), faults](uint64_t seed) -> std::unique_ptr<neat::CaseRunner> {
    std::unique_ptr<neat::CaseRunner> runner = base(seed);
    for (const net::FaultRule& rule : faults) {
      runner->Env().network().AddFaultRule(rule);
    }
    return runner;
  };
}

neat::CaseExecutor ScenarioCaseExecutor(const Scenario& scenario, Variant variant) {
  return neat::ReplayExecutor(ScenarioRunnerFactory(scenario, variant));
}

neat::TestCaseGenerator ScenarioGenerator(const Scenario& scenario) {
  neat::TestCaseGenerator::Alphabet alphabet;
  alphabet.client_events = scenario.campaign.events;
  alphabet.partitions = scenario.campaign.partitions;
  alphabet.targets = scenario.campaign.targets;
  alphabet.sides = scenario.campaign.sides;
  return neat::TestCaseGenerator(std::move(alphabet));
}

neat::PruningRules ScenarioPruning(const Scenario& scenario) {
  return scenario.campaign.paper_pruning ? neat::PaperPruning() : neat::NoPruning();
}

RunOutcome RunScenarioVariant(const Scenario& scenario, Variant variant) {
  if (scenario.campaign.present) {
    return RunCampaignScenario(scenario, variant);
  }
  return RunStepScenario(scenario, variant);
}

std::vector<RunOutcome> RunScenario(const Scenario& scenario) {
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(scenario.expects.size());
  for (const ExpectBlock& block : scenario.expects) {
    outcomes.push_back(RunScenarioVariant(scenario, block.variant));
  }
  return outcomes;
}

std::string ResultDigest(const neat::ExecutionResult& result) {
  Fnv fnv;
  fnv.MixWord(result.found_failure ? 1 : 0);
  fnv.MixWord(result.violations.size());
  for (const check::Violation& violation : result.violations) {
    fnv.Mix(violation.impact);
    fnv.Mix(violation.description);
    for (const uint64_t op_id : violation.op_ids) {
      fnv.MixWord(op_id);
    }
  }
  fnv.Mix(result.trace);
  for (const std::string& feature : result.coverage) {
    fnv.Mix(feature);
  }
  const neat::TraceReport& report = result.trace_report;
  fnv.MixWord(report.total_records);
  for (const auto& [event, count] : report.event_counts) {
    fnv.Mix(event);
    fnv.MixWord(count);
  }
  for (const auto& [link, count] : report.drops_per_link) {
    fnv.Mix(link);
    fnv.MixWord(count);
  }
  for (const sim::TraceRecord& record : report.leadership_events) {
    fnv.MixWord(static_cast<uint64_t>(record.when));
    fnv.Mix(record.component);
    fnv.Mix(record.event);
    fnv.Mix(record.detail);
  }
  return fnv.Hex();
}

std::string CampaignDigest(const neat::CampaignResult& result) {
  Fnv fnv;
  fnv.MixWord(result.cases_run);
  fnv.MixWord(result.failures);
  for (const neat::CaseResult& run : result.cases) {
    fnv.MixWord(run.case_index);
    fnv.MixWord(run.seed);
    fnv.MixWord(run.found_failure ? 1 : 0);
    fnv.Mix(run.signature);
    fnv.Mix(run.trace);
    for (const std::string& feature : run.coverage) {
      fnv.Mix(feature);
    }
  }
  return fnv.Hex();
}

}  // namespace scenario
