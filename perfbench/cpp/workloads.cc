#include "workloads.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "check/checkers.h"
#include "check/linearizability.h"
#include "neat/adapters.h"
#include "neat/campaign.h"
#include "neat/testgen.h"
#include "scenario/executor.h"
#include "scenario/parser.h"

namespace perfbench {
namespace {

// Seeds per leg. A pass covers them all, so the references a run needs
// are bounded by these no matter how many passes fit in the timed phase.
constexpr int kSweepSeeds = 2;    // campaign seeds per sweep-replay leg
constexpr int kDeepSeeds = 6;     // fork-executor seeds per deep-fork leg
constexpr int kGuidedSeeds = 8;   // guided_seed values per guided-fork system
constexpr int kSweepWorkers = 2;
constexpr int kGuidedWorkers = 2;

constexpr char kSymbols[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

class Fnv {
 public:
  void Mix(const std::string& text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    hash_ = (hash_ ^ 0xffu) * 1099511628211ull;  // separator
  }
  std::string Hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

Fingerprint Encode(std::string digest, const std::vector<std::string>& signatures) {
  Fingerprint fingerprint;
  fingerprint.digest = std::move(digest);
  for (const std::string& signature : signatures) {
    if (!signature.empty()) {
      ++fingerprint.histogram[signature];
    }
  }
  std::map<std::string, char> symbol;
  for (const auto& [signature, count] : fingerprint.histogram) {
    symbol[signature] = SignatureSymbol(symbol.size());
  }
  fingerprint.verdicts.reserve(signatures.size());
  for (const std::string& signature : signatures) {
    fingerprint.verdicts.push_back(signature.empty() ? '.' : symbol.at(signature));
  }
  return fingerprint;
}

// The signature each run's symbol stands for.
std::vector<std::string> Decode(const Fingerprint& fingerprint) {
  std::map<char, std::string> signature;
  for (const auto& [name, count] : fingerprint.histogram) {
    signature[SignatureSymbol(signature.size())] = name;
  }
  std::vector<std::string> out;
  out.reserve(fingerprint.verdicts.size());
  for (const char symbol : fingerprint.verdicts) {
    const auto it = signature.find(symbol);
    out.push_back(symbol == '.' ? std::string()
                  : it == signature.end() ? std::string("?")
                                          : it->second);
  }
  return out;
}

LegOutcome FromCampaign(const neat::CampaignResult& result, int workers) {
  LegOutcome outcome;
  std::vector<std::string> signatures;
  signatures.reserve(result.cases.size());
  for (const neat::CaseResult& run : result.cases) {
    signatures.push_back(run.signature);
  }
  std::string digest = scenario::CampaignDigest(result);
  if (result.guided.enabled) {
    digest += ":" + result.CorpusDigest();
  }
  outcome.fingerprint = Encode(std::move(digest), signatures);
  outcome.runs = result.cases_run;
  outcome.busy_us = result.total_host_micros;
  outcome.pool_us = result.sweep_seconds * 1e6 * workers;
  outcome.admitted = result.guided.corpus.size();
  outcome.mutants = result.guided.mutants_run;
  outcome.duplicates = result.guided.duplicates_skipped;
  return outcome;
}

// Accumulates sequential runs into a fingerprint.
class RunFolder {
 public:
  void Add(const neat::ExecutionResult& result) {
    fnv_.Mix(scenario::ResultDigest(result));
    signatures_.push_back(neat::FailureSignature(result));
  }
  Fingerprint Finish() const { return Encode(fnv_.Hex(), signatures_); }
  uint64_t runs() const { return signatures_.size(); }

 private:
  Fnv fnv_;
  std::vector<std::string> signatures_;
};

// One system under test: its case space, the classic full-replay
// executor, the step-by-step runners the fork executor drives, and the
// checkers the traced run re-invokes.
struct System {
  std::string name;
  neat::TestCaseGenerator generator;
  neat::CaseExecutor replay;
  neat::RunnerFactory runners;
  Checkers checkers;
};

neat::TestCaseGenerator KvSpace() { return neat::TestCaseGenerator(neat::TestCaseGenerator::Alphabet{}); }

neat::TestCaseGenerator LockSpace() {
  neat::TestCaseGenerator::Alphabet alphabet;
  alphabet.client_events = {neat::EventKind::kLock, neat::EventKind::kUnlock};
  return neat::TestCaseGenerator(alphabet);
}

size_t KvViolations(const check::History& history) {
  return check::CheckDirtyReads(history).size() + check::CheckDataLoss(history).size() +
         check::CheckReappearance(history).size() + check::CheckStaleReads(history).size();
}

System Pbkv() {
  return {"pbkv", KvSpace(), neat::PbkvCaseExecutor(pbkv::VoltDbOptions()),
          neat::PbkvRunnerFactory(pbkv::VoltDbOptions()), KvViolations};
}

System RaftKv() {
  return {"raftkv", KvSpace(), neat::RaftKvCaseExecutor(raftkv::RethinkDbOptions()),
          neat::RaftKvRunnerFactory(raftkv::RethinkDbOptions()),
          [](const check::History& history) {
            return KvViolations(history) +
                   (check::CheckLinearizable(history).linearizable ? 0u : 1u);
          }};
}

System Locksvc() {
  return {"locksvc", LockSpace(), neat::LocksvcCaseExecutor(locksvc::IgniteOptions()),
          neat::LocksvcRunnerFactory(locksvc::IgniteOptions()),
          [](const check::History& history) { return check::CheckBrokenLocks(history).size(); }};
}

size_t MqueueViolations(const check::History& history) {
  return check::CheckDoubleDequeue(history).size() + check::CheckLostMessages(history).size();
}

System Mqueue() {
  return {"mqueue", KvSpace(), neat::MqueueCaseExecutor(mqueue::ActiveMqOptions()),
          neat::MqueueRunnerFactory(mqueue::ActiveMqOptions()), MqueueViolations};
}

// The mqueue leg of guided-fork, compiled from a scenario file so the run
// goes through the DSL executor and the network's fault hook.
System MqueueScenario(const std::string& path) {
  const scenario::ParseResult parsed = scenario::ParseFile(path);
  if (!parsed.ok) {
    throw std::runtime_error(scenario::FormatDiagnostics(parsed, path));
  }
  const scenario::Scenario& spec = parsed.scenario;
  return {"mqueue-scn", scenario::ScenarioGenerator(spec),
          scenario::ScenarioCaseExecutor(spec, scenario::Variant::kFlawed),
          scenario::ScenarioRunnerFactory(spec, scenario::Variant::kFlawed), MqueueViolations};
}

neat::CaseExecutor Offset(neat::CaseExecutor inner, uint64_t offset) {
  return [inner = std::move(inner), offset](const neat::TestCase& test_case, uint64_t seed) {
    return inner(test_case, seed + offset);
  };
}

neat::RunnerFactory Offset(neat::RunnerFactory inner, uint64_t offset) {
  return [inner = std::move(inner), offset](uint64_t seed) { return inner(seed + offset); };
}

// Full replay through a runner factory: a fresh runner per run, driven
// straight through — what the classic executors do internally.
neat::CaseExecutor Replay(neat::RunnerFactory factory) {
  return [factory = std::move(factory)](const neat::TestCase& test_case, uint64_t seed) {
    std::unique_ptr<neat::CaseRunner> runner = factory(seed);
    for (const neat::TestEvent& event : test_case) {
      runner->ApplyEvent(event);
    }
    return runner->Finish(test_case);
  };
}

// --- sweep-replay: exhaustive paper-pruned len <= 4 campaigns, classic
// full-replay executors, 2 workers, campaign seeds base..base+S-1. ---
class SweepReplay final : public Workload {
 public:
  SweepReplay(uint64_t base, Tracer* tracer) : offset_(base - 1) {
    systems_ = {Pbkv(), RaftKv(), Locksvc(), Mqueue()};
    for (const System& system : systems_) {
      legs_.push_back(system.name);
      executors_.push_back(Offset(tracer == nullptr
                                      ? system.replay
                                      : Replay(tracer->Wrap(system.runners, system.checkers)),
                                  offset_));
      suite_sizes_.push_back(system.generator.CountUpTo(kMaxLength, neat::PaperPruning()));
    }
    campaigns_ = true;
  }

  LegOutcome RunLeg(size_t leg, Probe& probe) override {
    LegOutcome outcome = Sweep(systems_.at(leg), probe.Wrap(executors_.at(leg)), kSweepWorkers);
    const uint64_t expected = suite_sizes_.at(leg) * kSweepSeeds;
    outcome.miscounted = expected > outcome.runs ? expected - outcome.runs : outcome.runs - expected;
    return outcome;
  }

  Fingerprint Reference(size_t leg) override {
    const System& system = systems_.at(leg);
    return Sweep(system, Offset(system.replay, offset_), 1).fingerprint;
  }

 private:
  static constexpr int kMaxLength = 4;

  LegOutcome Sweep(const System& system, const neat::CaseExecutor& executor, int workers) {
    neat::CampaignOptions options;
    options.threads = workers;
    options.seeds = kSweepSeeds;
    return FromCampaign(neat::RunCampaign(system.generator, kMaxLength, neat::PaperPruning(),
                                          executor, options),
                        workers);
  }

  uint64_t offset_;
  std::vector<System> systems_;
  std::vector<neat::CaseExecutor> executors_;
  std::vector<uint64_t> suite_sizes_;  // cases per campaign seed
};

neat::TestEvent Event(neat::EventKind kind, neat::Side side = neat::Side::kMajority) {
  neat::TestEvent event;
  event.kind = kind;
  event.side = side;
  if (kind == neat::EventKind::kPartition) {
    event.partition = neat::PartitionKind::kComplete;
    event.target = neat::IsolationTarget::kLeader;
  }
  return event;
}

// bench/fork_prefix's case family: a parent of 24 [partition(complete,
// leader), majority write, heal] blocks plus a 12-event tail, then every
// single-event replacement in the tail, then every one- and two-event
// append extension. It is the benchmark's fixed input, not the program's
// set-up, so it is built once per process.
const std::vector<neat::TestCase>& DeepFamily() {
  static const std::vector<neat::TestCase> family = [] {
    constexpr int kBlocks = 24;
    constexpr int kTail = 12;
    neat::TestCase parent;
    for (int block = 0; block < kBlocks; ++block) {
      parent.push_back(Event(neat::EventKind::kPartition));
      parent.push_back(Event(neat::EventKind::kWrite));
      parent.push_back(Event(neat::EventKind::kHeal));
    }
    for (int i = 0; i < kTail; ++i) {
      parent.push_back(Event(i % 2 == 0 ? neat::EventKind::kWrite : neat::EventKind::kRead));
    }
    const std::vector<neat::TestEvent> alternatives = {
        Event(neat::EventKind::kWrite, neat::Side::kMajority),
        Event(neat::EventKind::kWrite, neat::Side::kMinority),
        Event(neat::EventKind::kRead, neat::Side::kMajority),
        Event(neat::EventKind::kRead, neat::Side::kMinority),
        Event(neat::EventKind::kDelete, neat::Side::kMajority),
    };
    std::vector<neat::TestCase> cases = {parent};
    for (size_t i = parent.size() - kTail; i < parent.size(); ++i) {
      for (const neat::TestEvent& alternative : alternatives) {
        neat::TestCase mutant = parent;
        mutant[i] = alternative;
        if (mutant != parent) {
          cases.push_back(std::move(mutant));
        }
      }
    }
    for (const neat::TestEvent& first : alternatives) {
      neat::TestCase extended = parent;
      extended.push_back(first);
      cases.push_back(extended);
      for (const neat::TestEvent& second : alternatives) {
        neat::TestCase pair = extended;
        pair.push_back(second);
        cases.push_back(std::move(pair));
      }
    }
    return cases;
  }();
  return family;
}

// --- deep-fork: one single-threaded ForkingExecutor (default options) per
// leg, built at set-up, over the deep family at seeds base..base+S-1. ---
class DeepFork final : public Workload {
 public:
  DeepFork(uint64_t base, Tracer* tracer) : base_(base) {
    systems_ = {Pbkv(), RaftKv(), Mqueue()};
    for (const System& system : systems_) {
      legs_.push_back(system.name);
      executors_.push_back(std::make_unique<neat::ForkingExecutor>(
          tracer == nullptr ? system.runners : tracer->Wrap(system.runners, system.checkers)));
    }
    forks_ = true;
  }

  // Runs once per set-up: the leg's executor, and with it every snapshot
  // it cached, is released when the leg ends.
  LegOutcome RunLeg(size_t leg, Probe& probe) override {
    std::unique_ptr<neat::ForkingExecutor> executor = std::move(executors_.at(leg));
    if (executor == nullptr) {
      throw std::logic_error("deep-fork leg run twice on one set-up");
    }
    RunFolder folder;
    for (int k = 0; k < kDeepSeeds; ++k) {
      const uint64_t seed = base_ + static_cast<uint64_t>(k);
      for (const neat::TestCase& test_case : DeepFamily()) {
        folder.Add(probe.Call(RunKey(test_case, seed),
                              [&] { return executor->Run(test_case, seed); }));
      }
    }
    LegOutcome outcome;
    outcome.fingerprint = folder.Finish();
    outcome.runs = folder.runs();
    outcome.fork = executor->stats();
    return outcome;
  }

  Fingerprint Reference(size_t leg) override {
    const System& system = systems_.at(leg);
    RunFolder folder;
    for (int k = 0; k < kDeepSeeds; ++k) {
      for (const neat::TestCase& test_case : DeepFamily()) {
        folder.Add(system.replay(test_case, base_ + static_cast<uint64_t>(k)));
      }
    }
    return folder.Finish();
  }

 private:
  uint64_t base_;
  std::vector<System> systems_;
  std::vector<std::unique_ptr<neat::ForkingExecutor>> executors_;
};

// The ForkStats of every fork session one guided leg opened.
class SessionStats {
 public:
  std::shared_ptr<neat::ForkStats> Open() {
    auto stats = std::make_shared<neat::ForkStats>();
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.push_back(stats);
    return stats;
  }
  neat::ForkStats Sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    neat::ForkStats sum;
    for (const auto& session : sessions_) {
      sum.cases_run += session->cases_run;
      sum.fresh_runners += session->fresh_runners;
      sum.forked_runs += session->forked_runs;
      sum.events_applied += session->events_applied;
      sum.events_forked_over += session->events_forked_over;
      sum.snapshots_taken += session->snapshots_taken;
      sum.snapshots_evicted += session->snapshots_evicted;
      sum.snapshots_invalidated += session->snapshots_invalidated;
    }
    return sum;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<neat::ForkStats>> sessions_;
};

// --- guided-fork: guided campaigns (default knobs) with ForkingSessions
// on 2 workers over the paper-pruned len <= 3 spaces, at guided_seed (and
// system seed) base..base+G-1. ---
class GuidedFork final : public Workload {
 public:
  GuidedFork(uint64_t base, const std::string& data_dir, Tracer* tracer) {
    systems_ = {Pbkv(), RaftKv(), Locksvc(),
                MqueueScenario(data_dir + "/scenarios/mqueue_guided.scn")};
    for (size_t index = 0; index < systems_.size(); ++index) {
      const System& system = systems_[index];
      for (int k = 0; k < kGuidedSeeds; ++k) {
        Leg leg;
        leg.system = index;
        leg.seed = base + static_cast<uint64_t>(k);
        leg.replay = Offset(system.replay, leg.seed - 1);
        const neat::RunnerFactory runners = Offset(system.runners, leg.seed - 1);
        if (tracer == nullptr) {
          leg.sessions = neat::ForkingSessions(runners);
        } else {
          // ForkingSessions with each session's ForkStats made readable.
          const neat::RunnerFactory traced = tracer->Wrap(runners, system.checkers);
          leg.stats = std::make_shared<SessionStats>();
          leg.sessions = [stats = leg.stats, traced] {
            return neat::ForkingCaseExecutor(traced, neat::ForkOptions{}, stats->Open());
          };
        }
        legs_.push_back(system.name + "/g" + std::to_string(k));
        guided_legs_.push_back(std::move(leg));
      }
    }
    forks_ = true;
    campaigns_ = true;
    guided_ = true;
    faults_ = true;
    samples_ = 20;  // a pass takes 0.6-1.2 s
  }

  LegOutcome RunLeg(size_t index, Probe& probe) override {
    const Leg& leg = guided_legs_.at(index);
    neat::CampaignOptions options = Options(leg.seed, kGuidedWorkers);
    options.sessions = probe.Wrap(leg.sessions);
    LegOutcome outcome = FromCampaign(Campaign(leg, options), kGuidedWorkers);
    if (leg.stats != nullptr) {
      outcome.fork = leg.stats->Sum();
    }
    return outcome;
  }

  Fingerprint Reference(size_t index) override {
    const Leg& leg = guided_legs_.at(index);
    return FromCampaign(Campaign(leg, Options(leg.seed, 1)), 1).fingerprint;
  }

 private:
  static constexpr int kMaxLength = 3;

  struct Leg {
    size_t system = 0;
    uint64_t seed = 0;
    neat::CaseExecutor replay;
    neat::SessionFactory sessions;
    std::shared_ptr<SessionStats> stats;  // traced set-ups only
  };

  static neat::CampaignOptions Options(uint64_t guided_seed, int workers) {
    neat::CampaignOptions options;
    options.threads = workers;
    options.guided = true;
    options.guided_seed = guided_seed;
    return options;
  }

  neat::CampaignResult Campaign(const Leg& leg, const neat::CampaignOptions& options) const {
    return neat::RunCampaign(systems_.at(leg.system).generator, kMaxLength, neat::PaperPruning(),
                             leg.replay, options);
  }

  std::vector<System> systems_;
  std::vector<Leg> guided_legs_;
};

}  // namespace

char SignatureSymbol(size_t index) {
  if (index + 1 >= sizeof(kSymbols)) {
    throw std::runtime_error("more distinct failure signatures than verdict symbols");
  }
  return kSymbols[index];
}

uint64_t CountMismatches(const Fingerprint& actual, const Fingerprint& expected) {
  const std::vector<std::string> got = Decode(actual);
  const std::vector<std::string> want = Decode(expected);
  const size_t common = std::min(got.size(), want.size());
  uint64_t mismatches = std::max(got.size(), want.size()) - common;
  for (size_t i = 0; i < common; ++i) {
    mismatches += got[i] != want[i] ? 1 : 0;
  }
  if (mismatches == 0 && actual.digest != expected.digest) {
    mismatches = got.size();
  }
  return mismatches;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sweep-replay", "deep-fork", "guided-fork"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t base,
                                       const std::string& data_dir, Tracer* tracer) {
  if (name == "sweep-replay") {
    return std::make_unique<SweepReplay>(base, tracer);
  }
  if (name == "deep-fork") {
    return std::make_unique<DeepFork>(base, tracer);
  }
  if (name == "guided-fork") {
    return std::make_unique<GuidedFork>(base, data_dir, tracer);
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
