#include "probe.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <utility>

#include "neat/coverage.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

double MicrosOf(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

// Spans of one run share its id; the id lives on the worker thread that
// executes the run, so layer spans recorded underneath pick it up.
std::atomic<uint64_t> next_run_id{1};
std::atomic<uint32_t> next_thread_index{1};
thread_local uint64_t current_run = 0;
thread_local uint32_t thread_index = 0;

uint32_t ThreadIndex() {
  if (thread_index == 0) {
    thread_index = next_thread_index.fetch_add(1);
  }
  return thread_index;
}

// The layer counters a call can move, read from the public accessors.
struct Counters {
  uint64_t events = 0, records = 0, sent = 0, delivered = 0, dropped = 0, faulted = 0;
};

Counters Read(neat::TestEnv& env) {
  sim::Simulator& simulator = env.simulator();
  net::Network& network = env.network();
  return Counters{simulator.events_executed(), simulator.Trace().appended(),
                  network.messages_sent(),     network.messages_delivered(),
                  network.messages_dropped(),  network.messages_faulted()};
}

void AddDelta(LayerTotals& totals, const Counters& before, const Counters& after) {
  totals.sim_events += after.events - before.events;
  totals.trace_records += after.records - before.records;
  totals.sent += after.sent - before.sent;
  totals.delivered += after.delivered - before.delivered;
  totals.dropped += after.dropped - before.dropped;
  totals.faulted += after.faulted - before.faulted;
}

// Runs `fn` as one span; returns its thread-CPU microseconds.
template <typename Fn>
double Measure(Tracer& tracer, const char* span, Fn&& fn) {
  const double wall = WallMicros();
  const double cpu = ThreadCpuMicros();
  fn();
  const double cpu_us = ThreadCpuMicros() - cpu;
  tracer.AddSpan(span, wall, WallMicros());
  return cpu_us;
}

// Forwards every call to the wrapped runner unchanged, timing each one and
// charging its counter deltas to the traced totals.
class TracedRunner final : public neat::CaseRunner {
 public:
  TracedRunner(std::unique_ptr<neat::CaseRunner> inner, Tracer& tracer, Checkers checkers)
      : inner_(std::move(inner)), tracer_(tracer), checkers_(std::move(checkers)) {}

  neat::TestEnv& Env() override { return inner_->Env(); }
  neat::ISystem* System() override { return inner_->System(); }

  void ApplyEvent(const neat::TestEvent& event) override {
    const Counters before = Read(Env());
    const double us = Measure(tracer_, "runner.apply", [&] { inner_->ApplyEvent(event); });
    const Counters after = Read(Env());
    tracer_.Accumulate([&](LayerTotals& totals) {
      ++totals.applies;
      totals.apply_us += us;
      AddDelta(totals, before, after);
    });
  }

  neat::ExecutionResult Finish(const neat::TestCase& test_case) override {
    neat::ExecutionResult result;
    const Counters before = Read(Env());
    const double finish_us =
        Measure(tracer_, "runner.finish", [&] { result = inner_->Finish(test_case); });
    const Counters after = Read(Env());
    const check::History& history = Env().history();
    const double check_us = Measure(tracer_, "check", [&] { (void)checkers_(history); });
    std::vector<std::string> features;
    const double coverage_us = Measure(
        tracer_, "coverage", [&] { features = neat::TraceCoverage(Env().simulator().Trace()); });
    tracer_.Accumulate([&](LayerTotals& totals) {
      ++totals.finishes;
      totals.finish_us += finish_us;
      AddDelta(totals, before, after);
      totals.check_us += check_us;
      totals.history_ops += history.size();
      totals.coverage_us += coverage_us;
      totals.features += features.size();
    });
    return result;
  }

  std::unique_ptr<neat::SystemState> Snapshot() const override {
    std::unique_ptr<neat::SystemState> state;
    const double us = Measure(tracer_, "fork.snapshot", [&] { state = inner_->Snapshot(); });
    tracer_.Accumulate([&](LayerTotals& totals) {
      ++totals.snapshots;
      totals.snapshot_us += us;
    });
    return state;
  }

  void Restore(const neat::SystemState& state) override {
    const double us = Measure(tracer_, "fork.restore", [&] { inner_->Restore(state); });
    tracer_.Accumulate([&](LayerTotals& totals) {
      ++totals.restores;
      totals.restore_us += us;
    });
  }

 private:
  std::unique_ptr<neat::CaseRunner> inner_;
  Tracer& tracer_;
  Checkers checkers_;
};

}  // namespace

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return MicrosOf(ts);
}

double WallMicros() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin)
      .count();
}

double ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return MicrosOf(ts);
}

double PeakRssMb() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss does not:
  // it survives execve, so under a launcher whose image was larger it
  // reports the launcher's peak instead of the benchmark's.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t RunKey(const neat::TestCase& test_case, uint64_t seed) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((value >> (8 * byte)) & 0xff)) * 1099511628211ULL;
    }
  };
  mix(seed);
  for (const neat::TestEvent& event : test_case) {
    mix(static_cast<uint64_t>(event.kind) | static_cast<uint64_t>(event.partition) << 16 |
        static_cast<uint64_t>(event.target) << 32 | static_cast<uint64_t>(event.side) << 48);
  }
  return hash;
}

Probe::Start Probe::Begin() {
  current_run = next_run_id.fetch_add(1);
  return Start{tracer_ != nullptr ? WallMicros() : 0.0, ThreadCpuMicros()};
}

void Probe::End(uint64_t key, const Start& start, const std::string& error,
                neat::ExecutionResult* result) {
  const double cpu_us = ThreadCpuMicros() - start.cpu_us;
  if (tracer_ != nullptr) {
    tracer_->AddSpan("run", start.wall_us, WallMicros());
  }
  if (!error.empty()) {
    *result = neat::ExecutionResult{};
    result->violations.push_back(check::Violation{"exception: " + error, error, {}});
    result->found_failure = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(Sample{key, cpu_us});
  ++runs_;
  thrown_ += error.empty() ? 0 : 1;
}

neat::CaseExecutor Probe::Wrap(neat::CaseExecutor inner) {
  return [this, inner = std::move(inner)](const neat::TestCase& test_case, uint64_t seed) {
    return Call(RunKey(test_case, seed), [&] { return inner(test_case, seed); });
  };
}

neat::SessionFactory Probe::Wrap(neat::SessionFactory inner) {
  return [this, inner = std::move(inner)]() { return Wrap(inner()); };
}

std::vector<Probe::Sample> Probe::TakeSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> taken;
  taken.swap(samples_);
  return taken;
}

uint64_t Probe::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

uint64_t Probe::thrown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thrown_;
}

neat::RunnerFactory Tracer::Wrap(neat::RunnerFactory inner, Checkers checkers) {
  return [this, inner = std::move(inner),
          checkers = std::move(checkers)](uint64_t seed) -> std::unique_ptr<neat::CaseRunner> {
    std::unique_ptr<neat::CaseRunner> runner;
    const double us = Measure(*this, "runner.setup", [&] { runner = inner(seed); });
    const Counters built = Read(runner->Env());
    Accumulate([&](LayerTotals& totals) {
      ++totals.setups;
      totals.setup_us += us;
      AddDelta(totals, Counters{}, built);
    });
    return std::make_unique<TracedRunner>(std::move(runner), *this, checkers);
  };
}

void Tracer::AddSpan(const char* name, double start_us, double end_us) {
  const uint32_t thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(Span{name, thread, current_run, start_us, end_us - start_us});
}

void Tracer::Accumulate(const std::function<void(LayerTotals&)>& update) {
  std::lock_guard<std::mutex> lock(mu_);
  update(totals_);
}

LayerTotals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

bool Tracer::WriteChromeTrace(const std::string& path, const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":\"%s\","
               "\"spans_dropped\":%llu},\"traceEvents\":[\n",
               label.c_str(), static_cast<unsigned long long>(spans_dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%llu}}%s\n",
                 span.name, span.thread, span.start_us, span.duration_us,
                 static_cast<unsigned long long>(span.run), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
