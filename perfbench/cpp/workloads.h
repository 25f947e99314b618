// The benchmark's three workloads, driven through the public campaign,
// runner and fork APIs (see perfbench/README.md for why each exists).
//
// A workload is a fixed list of legs — one campaign or one executor sweep
// each. Set-up builds everything a leg needs before it runs: generators,
// suite counts, parsed scenarios, runner factories, executors and session
// factories. A pass runs every leg once; the timed phase repeats passes
// until its time is up. Every leg can also compute
// its own reference with the serial full-replay executor, which is what
// the pinned references in perfbench/references.tsv were taken from.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "neat/fork.h"
#include "probe.h"

namespace perfbench {

// What a leg produced, in the form the references are pinned in.
struct Fingerprint {
  std::string digest;  // over everything observable in the leg's runs
  // Failure signature -> failing runs.
  std::map<std::string, uint64_t> histogram;
  // One symbol per run in execution order: '.' when the run passed, else
  // the position of its signature among the histogram's keys (SignatureSymbol).
  std::string verdicts;

  bool operator==(const Fingerprint& other) const = default;
};

// The symbol a failing run's signature gets; throws past 62 signatures.
char SignatureSymbol(size_t index);

// Runs in `actual` whose (verdict, signature) differs from `expected`,
// plus runs present in only one of them. A digest mismatch with every
// verdict equal counts every run of `actual`.
uint64_t CountMismatches(const Fingerprint& actual, const Fingerprint& expected);

struct LegOutcome {
  Fingerprint fingerprint;
  uint64_t runs = 0;
  // Exhaustive legs: runs by which the leg differs from the suite size
  // counted at set-up times the seeds. Each counts as a failed run.
  uint64_t miscounted = 0;
  // Campaign legs: summed per-run host time, and sweep wall x workers.
  double busy_us = 0;
  double pool_us = 0;
  // Guided legs.
  uint64_t admitted = 0, mutants = 0, duplicates = 0;
  // Fork legs (filled when the leg can read ForkStats).
  neat::ForkStats fork;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::vector<std::string>& legs() const { return legs_; }
  bool forks() const { return forks_; }
  bool campaigns() const { return campaigns_; }
  bool guided() const { return guided_; }
  bool faults() const { return faults_; }
  // Passes sampled for the per-run minima, one due every 1/samples() of a
  // phase. A pass must take well under 1/samples() of a 30 s phase, or
  // every pass is sampled and the count depends on the build's speed.
  int samples() const { return samples_; }

  // Runs one leg; `probe` times every executor call.
  virtual LegOutcome RunLeg(size_t leg, Probe& probe) = 0;
  // The leg's result under the serial full-replay executor.
  virtual Fingerprint Reference(size_t leg) = 0;

 protected:
  std::vector<std::string> legs_;
  bool forks_ = false;
  bool campaigns_ = false;
  bool guided_ = false;
  bool faults_ = false;  // a leg injects faults through the network's hook
  int samples_ = 30;
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Set-up. Seeds derive from `base`; `data_dir` holds the scenario files;
// a non-null `tracer` wraps every runner factory in its timing decorator.
// Throws std::runtime_error on an unknown name or a bad file.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t base,
                                       const std::string& data_dir, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
