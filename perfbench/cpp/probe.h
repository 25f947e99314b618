// Instruments the benchmark places around the repository's public APIs.
//
// Probe times every executor call (one run) in thread-CPU microseconds and
// turns an escaping exception into a failing verdict, so a crashing case is
// counted instead of ending the process. Tracer is the traced run's
// recorder: its RunnerFactory wrapper returns a CaseRunner decorator that
// times setup, ApplyEvent, Finish, Snapshot and Restore, re-invokes the
// system's checkers and TraceCoverage on each finished run as separate
// spans, and reads the simulator, network and trace-log counters around
// every call. Nothing here changes what a run does: the decorator forwards
// each call unchanged, and the benchmark asserts that traced verdict
// digests equal untraced ones.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "check/history.h"
#include "neat/execution.h"
#include "neat/fork.h"

namespace perfbench {

// CPU time consumed by the calling thread, in microseconds.
double ThreadCpuMicros();
// Wall time since the first call in this process, in microseconds.
double WallMicros();
// CPU time of the whole process (all threads, live or joined), in microseconds.
double ProcessCpuMicros();
// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// Names one run by its case and seed: the same run in another pass gets
// the same key.
uint64_t RunKey(const neat::TestCase& test_case, uint64_t seed);

class Tracer;

// Per-run timing shared by every worker of one phase.
class Probe {
 public:
  explicit Probe(Tracer* tracer = nullptr) : tracer_(tracer) {}

  // Times one run: `run` is an executor call returning its ExecutionResult,
  // and `key` names the run (RunKey) so that its repeats can be matched.
  template <typename Run>
  neat::ExecutionResult Call(uint64_t key, Run&& run) {
    const Start start = Begin();
    neat::ExecutionResult result;
    std::string error;
    try {
      result = run();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    End(key, start, error, &result);
    return result;
  }
  neat::CaseExecutor Wrap(neat::CaseExecutor inner);
  neat::SessionFactory Wrap(neat::SessionFactory inner);

  // One timed run: its key and its thread-CPU microseconds.
  struct Sample {
    uint64_t key;
    double cpu_us;
  };
  // Every run since the previous call, in completion order. Only one
  // leg's samples are ever held, so the benchmark's own memory does not
  // grow with the number of passes.
  std::vector<Sample> TakeSamples();
  uint64_t runs() const;
  uint64_t thrown() const;

 private:
  struct Start {
    double wall_us;
    double cpu_us;
  };
  Start Begin();
  // Records the run; a non-empty `error` replaces the result with a
  // failing verdict whose signature names the exception.
  void End(uint64_t key, const Start& start, const std::string& error,
           neat::ExecutionResult* result);

  Tracer* tracer_;
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  uint64_t runs_ = 0;
  uint64_t thrown_ = 0;
};

// Re-invokes a system's checkers on a finished history; returns the number
// of violations (kept so the call cannot be optimised away).
using Checkers = std::function<size_t(const check::History&)>;

// Sums over every call the traced run made into one layer.
struct LayerTotals {
  uint64_t setups = 0, applies = 0, finishes = 0, snapshots = 0, restores = 0;
  double setup_us = 0, apply_us = 0, finish_us = 0, snapshot_us = 0, restore_us = 0;
  double check_us = 0, coverage_us = 0;
  uint64_t history_ops = 0, features = 0;
  uint64_t sim_events = 0, trace_records = 0;
  uint64_t sent = 0, delivered = 0, dropped = 0, faulted = 0;
};

class Tracer {
 public:
  // Spans beyond this many are counted but not kept.
  static constexpr size_t kMaxSpans = 200000;

  // A factory whose runners are wrapped in the timing decorator.
  neat::RunnerFactory Wrap(neat::RunnerFactory inner, Checkers checkers);

  // Records one span on the calling thread (times from WallMicros()).
  void AddSpan(const char* name, double start_us, double end_us);
  // Adds to the totals under the tracer's lock.
  void Accumulate(const std::function<void(LayerTotals&)>& update);

  LayerTotals totals() const;
  // Writes the kept spans as Chrome trace-event JSON (opens in Perfetto).
  bool WriteChromeTrace(const std::string& path, const std::string& label) const;

 private:
  struct Span {
    const char* name;
    uint32_t thread;
    uint64_t run;
    double start_us;
    double duration_us;
  };

  mutable std::mutex mu_;
  LayerTotals totals_;
  std::vector<Span> spans_;
  uint64_t spans_dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
