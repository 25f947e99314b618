// perfbench: the repository's benchmark program (see perfbench/README.md).
//
//   perfbench --workload <sweep-replay|deep-fork|guided-fork> --seed <base>
//             --seconds <s> --trace <0|1> [--data <dir>] [--trace-out <file>]
//             [--commit <id>] [--perturb-reference] [--pin]
//
// Set-up runs several times (median reported). The timed phase repeats
// passes over the workload's legs until --seconds have elapsed. Each run's
// least thread-CPU time over a fixed number of passes spread across the
// phase gives the per-run percentiles; throughput and process CPU are the
// best decile of their per-pass values, each scaled by how much slower the
// pass's runs were than their least. With --trace 1 a second, traced phase
// follows for the per-layer metrics.
// Every leg's output is then checked against its reference — pinned in
// <data>/references.tsv for the default base, otherwise recomputed live
// with the serial full-replay executor after the timed phases. The last
// line of stdout is the result JSON; the line before it is run metadata.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t base = 1;
  double seconds = 10;
  bool trace = false;
  std::string data = "perfbench";
  std::string trace_out;
  std::string commit = "unknown";
  bool perturb = false;
  bool pin = false;
};

// A sample is due every 1/Workload::samples() of the untraced phase and is
// taken at the next pass, so samples see the host across the whole run and
// their number does not depend on how many passes the run fits. A sample
// is a batch of kSetupsPerBatch back-to-back set-ups (setup_s is the median
// of the batches' mean set-up time; a batch makes a set-up of a few
// microseconds read steadily) and the pass run on the last of them, whose
// runs feed each run's minimum thread-CPU time.
//
// Other tenants of a shared host stall single runs in bursts shorter than
// a pass, so every pass-level figure averages some stalls in, while a
// run's least time over its repeats leaves them out. The fixed number of
// repeats keeps the minimum's expected value independent of how fast the
// build is.
constexpr int kSetupsPerBatch = 64;

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--data <dir>] [--trace-out <file>] [--commit <id>] "
               "[--perturb-reference] [--pin]\n",
               error.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value after " + flag);
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.base = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = value() != "0";
      } else if (flag == "--data") {
        args.data = value();
      } else if (flag == "--trace-out") {
        args.trace_out = value();
      } else if (flag == "--commit") {
        args.commit = value();
      } else if (flag == "--perturb-reference") {
        args.perturb = true;
      } else if (flag == "--pin") {
        args.pin = true;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// The per-pass figure that a tenth of the passes beat, interpolated
// between neighbouring passes. Other tenants of the host can only slow a
// pass down, and on the shared hosts this runs on they slow some passes a
// lot, so this reads the program's cost more steadily than the median.
// Unlike the minimum, its expected value does not move with the number of
// passes a run completes, so a faster build is not credited with a
// luckier sample.
double BestDecile(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  if (higher_is_better) {
    std::reverse(values.begin(), values.end());
  }
  const double position = 0.1 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (values[upper] - values[lower]) * (position - static_cast<double>(lower));
}

// (Q3 - Q1) / median with Python's statistics.quantiles(n=4) (exclusive).
double Spread(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 2) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto quartile = [&](int i) {
    const double position = static_cast<double>(i) * static_cast<double>(n + 1) / 4.0;
    const double clamped = std::clamp(position, 1.0, static_cast<double>(n));
    const auto lower = static_cast<size_t>(std::floor(clamped));
    const double fraction = clamped - static_cast<double>(lower);
    const double low = values[lower - 1];
    const double high = lower < n ? values[lower] : low;
    return low + (high - low) * fraction;
  };
  const double median = Median(values);
  return median == 0 ? 0 : (quartile(3) - quartile(1)) / median;
}

// --- the pinned references: workload, leg, base, digest, histogram, verdicts ---

std::string ReferenceKey(const std::string& workload, const std::string& leg, uint64_t base) {
  return workload + "\t" + leg + "\t" + std::to_string(base);
}

std::string FormatReference(const std::string& key, const Fingerprint& fingerprint) {
  std::string histogram;
  for (const auto& [signature, count] : fingerprint.histogram) {
    histogram += (histogram.empty() ? "" : "|") + signature + "=" + std::to_string(count);
  }
  return key + "\t" + fingerprint.digest + "\t" + (histogram.empty() ? "-" : histogram) + "\t" +
         fingerprint.verdicts;
}

std::map<std::string, Fingerprint> LoadReferences(const std::string& path) {
  std::map<std::string, Fingerprint> references;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string> fields;
    std::stringstream stream(line);
    std::string field;
    while (std::getline(stream, field, '\t')) {
      fields.push_back(field);
    }
    if (fields.size() != 6) {
      throw std::runtime_error(path + ": malformed reference line: " + line);
    }
    Fingerprint fingerprint;
    fingerprint.digest = fields[3];
    std::stringstream entries(fields[4] == "-" ? "" : fields[4]);
    std::string entry;
    while (std::getline(entries, entry, '|')) {
      const size_t eq = entry.rfind('=');
      if (eq == std::string::npos) {
        throw std::runtime_error(path + ": malformed histogram entry: " + entry);
      }
      fingerprint.histogram[entry.substr(0, eq)] = std::stoull(entry.substr(eq + 1));
    }
    fingerprint.verdicts = fields[5];
    references[ReferenceKey(fields[0], fields[1], std::stoull(fields[2]))] = fingerprint;
  }
  return references;
}

// A deliberately wrong reference, for the self-test: the digest changed
// and the first run's verdict replaced by one no run can produce.
void Perturb(Fingerprint* reference) {
  reference->digest = "perturbed";
  if (!reference->verdicts.empty()) {
    reference->verdicts[0] = '?';
  }
}

// --- phases ---

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// One pass: its wall time, the process CPU it used, its runs and their
// summed thread-CPU time.
struct Pass {
  double wall_s = 0;
  double process_cpu_us = 0;
  double run_cpu_us = 0;
  size_t runs = 0;
};

struct Phase {
  uint64_t runs = 0;
  uint64_t passes = 0;
  uint64_t sampled_passes = 0;
  uint64_t thrown = 0;
  uint64_t miscounted = 0;
  double wall_s = 0;
  double process_cpu_us = 0;
  std::vector<Pass> pass_log;
  // Per run: its least thread-CPU us over the sampled passes.
  std::unordered_map<uint64_t, double> run_cpu_min;
  // Per leg: each distinct fingerprint the leg produced, with its pass count.
  std::vector<std::vector<std::pair<Fingerprint, uint64_t>>> fingerprints;
  LegOutcome sum;  // campaign, guided and fork counters summed over legs and passes
};

void Remember(std::vector<std::pair<Fingerprint, uint64_t>>* seen, Fingerprint fingerprint) {
  const auto it = std::find_if(seen->begin(), seen->end(),
                               [&](const auto& entry) { return entry.first == fingerprint; });
  if (it == seen->end()) {
    seen->emplace_back(std::move(fingerprint), 1);
  } else {
    ++it->second;
  }
}

void AddCounters(LegOutcome* sum, const LegOutcome& outcome) {
  sum->busy_us += outcome.busy_us;
  sum->pool_us += outcome.pool_us;
  sum->admitted += outcome.admitted;
  sum->mutants += outcome.mutants;
  sum->duplicates += outcome.duplicates;
  sum->fork.cases_run += outcome.fork.cases_run;
  sum->fork.events_applied += outcome.fork.events_applied;
  sum->fork.events_forked_over += outcome.fork.events_forked_over;
  sum->fork.snapshots_taken += outcome.fork.snapshots_taken;
  sum->fork.snapshots_evicted += outcome.fork.snapshots_evicted;
  sum->fork.snapshots_invalidated += outcome.fork.snapshots_invalidated;
}

// Folds one leg's runs of a sampled pass into each run's minimum. A run is
// keyed by its leg, its case and seed, and the number of runs of the same
// case and seed the leg made before it in the pass.
void FoldMinimum(size_t leg, const std::vector<Probe::Sample>& samples,
                 std::unordered_map<uint64_t, double>* minimum) {
  std::unordered_map<uint64_t, uint64_t> repeats;
  for (const Probe::Sample& sample : samples) {
    const uint64_t key = (sample.key ^ (leg * 0x9E3779B97F4A7C15ULL)) +
                         repeats[sample.key]++ * 0xC2B2AE3D27D4EB4FULL;
    const auto [it, inserted] = minimum->emplace(key, sample.cpu_us);
    if (!inserted) {
      it->second = std::min(it->second, sample.cpu_us);
    }
  }
}

using Setup = std::function<std::unique_ptr<Workload>()>;

// Sets up kSetupsPerBatch workloads back to back and returns the mean
// seconds per set-up. `workload` is left holding the last; the others are
// destroyed after the timing ends.
double TimeSetupBatch(const Setup& setup, std::unique_ptr<Workload>* workload) {
  std::vector<std::unique_ptr<Workload>> built(kSetupsPerBatch);
  const double start = WallMicros();
  for (std::unique_ptr<Workload>& one : built) {
    one = setup();
  }
  const double seconds = (WallMicros() - start) / 1e6 / kSetupsPerBatch;
  *workload = std::move(built.back());
  return seconds;
}

// Repeats passes until `seconds` have elapsed. Each pass runs on a freshly
// set-up workload, built outside the pass's timing; `workload` is left
// holding the last one. A pass due for a sample folds its runs into
// `run_cpu_min`, and with a non-null `setup_s` its set-up is a timed batch.
Phase RunPhase(const Setup& setup, std::unique_ptr<Workload>* workload, double seconds,
               Tracer* tracer, std::vector<double>* setup_s) {
  Probe probe(tracer);
  Phase phase;
  const size_t legs = (*workload)->legs().size();
  const int samples_per_phase = (*workload)->samples();
  phase.fingerprints.resize(legs);
  const double cpu_start = ProcessCpuMicros();
  const double start = WallMicros();
  double next_sample_s = 0;  // phase time at which the next sample is due
  do {
    const bool sampled = (WallMicros() - start) / 1e6 >= next_sample_s;
    if (sampled) {
      next_sample_s += seconds / samples_per_phase;
      ++phase.sampled_passes;
    }
    if (sampled && setup_s != nullptr) {
      setup_s->push_back(TimeSetupBatch(setup, workload));
    } else {
      *workload = setup();
    }
    Pass pass;
    const double pass_cpu = ProcessCpuMicros();
    const double pass_start = WallMicros();
    for (size_t leg = 0; leg < legs; ++leg) {
      LegOutcome outcome = (*workload)->RunLeg(leg, probe);
      phase.miscounted += outcome.miscounted;
      Remember(&phase.fingerprints[leg], std::move(outcome.fingerprint));
      AddCounters(&phase.sum, outcome);
      const std::vector<Probe::Sample> samples = probe.TakeSamples();
      pass.runs += samples.size();
      for (const Probe::Sample& sample : samples) {
        pass.run_cpu_us += sample.cpu_us;
      }
      if (sampled) {
        FoldMinimum(leg, samples, &phase.run_cpu_min);
      }
    }
    pass.wall_s = (WallMicros() - pass_start) / 1e6;
    pass.process_cpu_us = ProcessCpuMicros() - pass_cpu;
    phase.pass_log.push_back(pass);
    ++phase.passes;
  } while (WallMicros() - start < seconds * 1e6);
  phase.wall_s = (WallMicros() - start) / 1e6;
  phase.process_cpu_us = ProcessCpuMicros() - cpu_start;
  phase.runs = probe.runs();
  phase.thrown = probe.thrown();
  return phase;
}

// Per pass, runs per wall second and process-CPU us per run. With
// `least_us`, the sum of every run's least thread-CPU time, each pass's
// figures are scaled by how much slower its runs were than their least
// (summed thread-CPU time over `least_us`), which takes out the host's
// stalls while keeping the work between runs in proportion.
struct PassFigures {
  std::vector<double> rates;
  std::vector<double> cpu_per_run;
};

PassFigures Figures(const Phase& phase, std::optional<double> least_us) {
  PassFigures figures;
  for (const Pass& pass : phase.pass_log) {
    const double slowdown = least_us ? Ratio(pass.run_cpu_us, *least_us) : 1;
    const auto runs = static_cast<double>(pass.runs);
    figures.rates.push_back(Ratio(runs, pass.wall_s) * slowdown);
    figures.cpu_per_run.push_back(Ratio(pass.process_cpu_us, runs * slowdown));
  }
  return figures;
}

// --- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// The per-layer metrics of the traced phase. The result line carries
// every per-layer metric; those whose layer the workload does not use
// read 0 there and are named in the metadata's `not_applicable`.
std::vector<Metric> LayerMetrics(const Workload& workload, const Phase& untraced,
                                 const Phase& traced, const LayerTotals& layers,
                                 std::vector<std::string>* not_applicable) {
  const double untraced_rate = BestDecile(Figures(untraced, {}).rates, true);
  const double traced_rate = BestDecile(Figures(traced, {}).rates, true);
  const auto runs = static_cast<double>(traced.runs);
  const auto per_run = [&](double value) { return Ratio(value, runs); };
  const double simulating_s = (layers.setup_us + layers.apply_us + layers.finish_us) / 1e6;
  const auto finishes = static_cast<double>(layers.finishes);
  const neat::ForkStats& fork = traced.sum.fork;
  const double fork_events = static_cast<double>(fork.events_applied + fork.events_forked_over);
  const double proposals = static_cast<double>(traced.sum.mutants + traced.sum.duplicates);

  std::vector<Metric> metrics = {
      {"sim.events_per_run", per_run(static_cast<double>(layers.sim_events)), "count"},
      {"sim.events_per_s", Ratio(static_cast<double>(layers.sim_events), simulating_s), "1/s"},
      {"sim.trace_records_per_run", per_run(static_cast<double>(layers.trace_records)), "count"},
      {"net.sent_per_run", per_run(static_cast<double>(layers.sent)), "count"},
      {"net.delivered_per_run", per_run(static_cast<double>(layers.delivered)), "count"},
      {"net.dropped_per_run", per_run(static_cast<double>(layers.dropped)), "count"},
      {"net.faulted_per_run", per_run(static_cast<double>(layers.faulted)), "count"},
      {"runner.setup_us", Ratio(layers.setup_us, static_cast<double>(layers.setups)), "us"},
      {"runner.fresh_per_run", per_run(static_cast<double>(layers.setups)), "count"},
      {"runner.apply_us_per_event", Ratio(layers.apply_us, static_cast<double>(layers.applies)),
       "us"},
      {"runner.finish_us", Ratio(layers.finish_us, finishes), "us"},
      {"check.us_per_run", Ratio(layers.check_us, finishes), "us"},
      {"check.history_ops_per_run", Ratio(static_cast<double>(layers.history_ops), finishes),
       "count"},
      {"coverage.fold_us_per_run", Ratio(layers.coverage_us, finishes), "us"},
      {"coverage.features_per_run", Ratio(static_cast<double>(layers.features), finishes),
       "count"},
      {"fork.snapshot_us", Ratio(layers.snapshot_us, static_cast<double>(layers.snapshots)), "us"},
      {"fork.restore_us", Ratio(layers.restore_us, static_cast<double>(layers.restores)), "us"},
      {"fork.snapshots_per_run",
       Ratio(static_cast<double>(fork.snapshots_taken), static_cast<double>(fork.cases_run)),
       "count"},
      {"fork.prefix_reuse", Ratio(static_cast<double>(fork.events_forked_over), fork_events),
       "ratio"},
      {"fork.snapshot_waste",
       Ratio(static_cast<double>(fork.snapshots_evicted + fork.snapshots_invalidated),
             static_cast<double>(fork.snapshots_taken)),
       "ratio"},
      {"campaign.worker_util", Ratio(untraced.sum.busy_us, untraced.sum.pool_us), "ratio"},
      {"guided.admit_ratio", per_run(static_cast<double>(traced.sum.admitted)), "ratio"},
      {"guided.duplicate_ratio", Ratio(static_cast<double>(traced.sum.duplicates), proposals),
       "ratio"},
      {"trace.overhead",
       Ratio(untraced_rate, traced_rate), "x"},
  };
  for (const Metric& metric : metrics) {
    const bool fork_metric = metric.name.rfind("fork.", 0) == 0;
    const bool campaign_metric = metric.name == "campaign.worker_util";
    const bool guided_metric = metric.name.rfind("guided.", 0) == 0;
    const bool fault_metric = metric.name == "net.faulted_per_run";
    if ((fork_metric && !workload.forks()) || (campaign_metric && !workload.campaigns()) ||
        (guided_metric && !workload.guided()) || (fault_metric && !workload.faults())) {
      not_applicable->push_back(metric.name);
    }
  }
  return metrics;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + items[i] + "\"";
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build (build type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  Tracer tracer;
  const auto make_setup = [&args](Tracer* tracing) -> Setup {
    return [&args, tracing] { return MakeWorkload(args.workload, args.base, args.data, tracing); };
  };
  const Setup setup = make_setup(nullptr);
  // One untimed set-up first, so the benchmark's own fixed inputs (built
  // once per process) and first-touch costs stay out of setup_s.
  std::unique_ptr<Workload> workload = setup();
  const std::vector<std::string> legs = workload->legs();

  if (args.pin) {
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      std::printf("%s\n", FormatReference(ReferenceKey(args.workload, legs[leg], args.base),
                                          workload->Reference(leg))
                              .c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  // A traced run splits its time between an untraced and a traced phase.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_s;
  const Phase untraced = RunPhase(setup, &workload, phase_seconds, nullptr, &setup_s);
  const double peak_rss_mb = PeakRssMb();
  std::optional<Phase> traced;
  if (args.trace) {
    traced = RunPhase(make_setup(&tracer), &workload, phase_seconds, &tracer, nullptr);
  }

  // Correctness: every leg of every pass, traced or not, against one
  // reference — which also asserts that tracing changed no verdict.
  const std::map<std::string, Fingerprint> pinned = LoadReferences(args.data + "/references.tsv");
  std::vector<const Phase*> phases = {&untraced};
  if (traced) {
    phases.push_back(&*traced);
  }
  uint64_t failed = 0;
  for (const Phase* phase : phases) {
    failed += phase->miscounted;
    if (phase->miscounted > 0) {
      std::printf("MISCOUNT %s: %llu runs differ from the suite sizes counted at set-up\n",
                  args.workload.c_str(), static_cast<unsigned long long>(phase->miscounted));
    }
  }
  uint64_t live = 0;
  for (size_t leg = 0; leg < legs.size(); ++leg) {
    const auto hit = pinned.find(ReferenceKey(args.workload, legs[leg], args.base));
    Fingerprint reference;
    if (hit != pinned.end()) {
      reference = hit->second;
    } else {
      ++live;
      reference = workload->Reference(leg);
    }
    if (args.perturb && leg == 0) {
      Perturb(&reference);
    }
    for (const Phase* phase : phases) {
      for (const auto& [fingerprint, passes] : phase->fingerprints[leg]) {
        const uint64_t mismatches = CountMismatches(fingerprint, reference);
        failed += passes * mismatches;
        if (mismatches > 0) {
          std::printf("MISMATCH %s leg %s: %llu of %zu runs differ from the reference "
                      "(digest %s, reference %s)\n",
                      args.workload.c_str(), legs[leg].c_str(),
                      static_cast<unsigned long long>(mismatches), fingerprint.verdicts.size(),
                      fingerprint.digest.c_str(), reference.digest.c_str());
        }
      }
    }
  }
  const uint64_t attempted = untraced.runs + (traced ? traced->runs : 0);
  const bool correct = failed == 0;

  std::vector<double> run_cpu;
  run_cpu.reserve(untraced.run_cpu_min.size());
  double least_us = 0;
  for (const auto& [key, cpu_us] : untraced.run_cpu_min) {
    run_cpu.push_back(cpu_us);
    least_us += cpu_us;
  }
  const PassFigures raw = Figures(untraced, {});
  const PassFigures steady = Figures(untraced, least_us);
  std::vector<Metric> metrics;
  std::vector<std::string> not_applicable;
  if (!args.trace) {
    metrics = {
        {"cases_per_s", BestDecile(steady.rates, true), "1/s"},
        {"run_cpu_us_p50", Percentile(run_cpu, 0.50), "us"},
        {"run_cpu_us_p99", Percentile(run_cpu, 0.99), "us"},
        {"process_cpu_us_per_run", BestDecile(steady.cpu_per_run, false), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    metrics = LayerMetrics(*workload, untraced, *traced, tracer.totals(), &not_applicable);
    if (!args.trace_out.empty() &&
        !tracer.WriteChromeTrace(args.trace_out,
                                 args.workload + " seed " + std::to_string(args.base))) {
      std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
    }
  }

  std::printf("%s seed %llu: %zu legs, %llu passes, %llu runs (%llu thrown), %.3f s timed, "
              "references %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.base), legs.size(),
              static_cast<unsigned long long>(untraced.passes),
              static_cast<unsigned long long>(untraced.runs),
              static_cast<unsigned long long>(untraced.thrown), untraced.wall_s,
              live == 0 ? "pinned" : live == legs.size() ? "live" : "pinned+live");
  std::printf("  pooled over the phase: %.1f runs/s, process CPU %.1f us/run; "
              "as measured, best decile: %.1f runs/s, process CPU %.1f us/run\n",
              Ratio(static_cast<double>(untraced.runs), untraced.wall_s),
              Ratio(untraced.process_cpu_us, static_cast<double>(untraced.runs)),
              BestDecile(raw.rates, true), BestDecile(raw.cpu_per_run, false));
  for (const Metric& metric : metrics) {
    const bool na =
        std::find(not_applicable.begin(), not_applicable.end(), metric.name) != not_applicable.end();
    std::printf("  %-28s %14.6g %s%s\n", metric.name.c_str(), metric.value, metric.unit.c_str(),
                na ? "  (n/a)" : "");
  }
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
              "\"setup_repetitions\": %zu, \"passes\": %llu, \"runs_per_pass\": %llu, "
              "\"run_cpu_runs\": %zu, \"run_cpu_repeats\": %llu, \"references\": \"%s\", "
              "\"as_measured\": {\"cases_per_s\": %s, \"process_cpu_us_per_run\": %s}, "
              "\"spread\": {\"cases_per_s\": %s, \"process_cpu_us_per_run\": %s, "
              "\"setup_s\": %s}, "
              "\"not_applicable\": %s}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.base),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              args.commit.c_str(), setup_s.size() * kSetupsPerBatch,
              static_cast<unsigned long long>(untraced.passes),
              static_cast<unsigned long long>(untraced.runs / untraced.passes),
              run_cpu.size(), static_cast<unsigned long long>(untraced.sampled_passes),
              live == 0 ? "pinned" : "live", Number(BestDecile(raw.rates, true)).c_str(),
              Number(BestDecile(raw.cpu_per_run, false)).c_str(),
              Number(Spread(steady.rates)).c_str(), Number(Spread(steady.cpu_per_run)).c_str(),
              Number(Spread(setup_s)).c_str(),
              JsonList(not_applicable).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
