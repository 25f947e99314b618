// Microbenchmark: the per-packet cost of partition-rule evaluation as the
// installed-rule table grows, on both backends.
//
// "legacy" is the authoritative backend Allows() — the path every packet
// paid (twice: at send and at delivery) before the ConnectivityCache.
// "cached" is the O(1) bitmap the network consults now. "packets/s" drives
// whole packets through net::Network (two cached verdicts, a latency draw,
// a heap push/pop, and delivery). The installed rules never match the
// measured links, which is the worst case for the switch's linear scan.
//
// A final section measures rule churn: total time to Block then Unblock
// 1000 rules, where the firewall's reverse index (RuleId -> chain entries)
// replaces the old scan over every host chain.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/connectivity.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace {

constexpr int kNodes = 16;
constexpr int kRuleCounts[] = {0, 10, 100, 1000};

struct Nop final : public net::Message {
  std::string_view TypeName() const override { return "Nop"; }
};

// Keeps measured loops observable so the compiler cannot elide them.
volatile bool g_sink = false;

double NowSeconds() {
  return std::chrono::duration<double>(
             // detlint: allow(wall-clock): bench timing probe; the simulated workload itself uses virtual time
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<net::PartitionBackend> MakeBackend(const std::string& kind) {
  if (kind == "switch") {
    return std::make_unique<net::SwitchPartitioner>();
  }
  return std::make_unique<net::FirewallPartitioner>();
}

// Installs `count` rules on node ids far from the measured 0..kNodes-1 set.
std::vector<net::RuleId> InstallRules(net::PartitionBackend* backend, int count) {
  std::vector<net::RuleId> rules;
  rules.reserve(count);
  for (int i = 0; i < count; ++i) {
    const net::NodeId a = static_cast<net::NodeId>(1000 + 2 * i);
    const net::NodeId b = static_cast<net::NodeId>(1001 + 2 * i);
    rules.push_back(backend->Block({a}, {b}));
  }
  return rules;
}

// ns per Allows() call on the authoritative backend path.
double LegacyAllowsNs(net::PartitionBackend* backend, int iterations) {
  bool sink = false;
  const double start = NowSeconds();
  for (int i = 0; i < iterations; ++i) {
    sink ^= backend->Allows(i % kNodes, (i + 1) % kNodes);
  }
  const double elapsed = NowSeconds() - start;
  g_sink = sink;
  return elapsed * 1e9 / iterations;
}

// ns per Allows() call on the cached path.
double CachedAllowsNs(const net::ConnectivityCache& cache, int iterations) {
  bool sink = false;
  const double start = NowSeconds();
  for (int i = 0; i < iterations; ++i) {
    sink ^= cache.Allows(i % kNodes, (i + 1) % kNodes);
  }
  const double elapsed = NowSeconds() - start;
  g_sink = sink;
  return elapsed * 1e9 / iterations;
}

// End-to-end packets per second through the network (send + deliver).
double PacketsPerSecond(const std::string& kind, int rule_count, int packets) {
  sim::Simulator simulator;
  simulator.Trace().set_enabled(false);
  auto backend = MakeBackend(kind);
  net::Network network(&simulator, backend.get());
  network.set_latency({sim::Microseconds(10), 0});
  for (net::NodeId n = 0; n < kNodes; ++n) {
    network.Register(n, [](const net::Envelope&) {});
  }
  InstallRules(backend.get(), rule_count);
  auto msg = std::make_shared<const Nop>();
  const double start = NowSeconds();
  for (int i = 0; i < packets; ++i) {
    network.Send(i % kNodes, (i + 1) % kNodes, msg);
    if (i % 64 == 63) {
      simulator.RunUntilIdle();  // drain in batches, like real traffic bursts
    }
  }
  simulator.RunUntilIdle();
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(network.messages_delivered()) / elapsed;
}

// Total microseconds to install and then remove `count` rules.
std::pair<double, double> ChurnMicros(const std::string& kind, int count) {
  auto backend = MakeBackend(kind);
  const double t0 = NowSeconds();
  std::vector<net::RuleId> rules = InstallRules(backend.get(), count);
  const double t1 = NowSeconds();
  for (net::RuleId id : rules) {
    backend->Unblock(id);
  }
  const double t2 = NowSeconds();
  return {(t1 - t0) * 1e6, (t2 - t1) * 1e6};
}

}  // namespace

int main() {
  bench::Banner("micro_partition — per-packet partition-verdict cost vs. rule count");

  std::printf("\n| backend  | rules | legacy Allows ns/op | cached Allows ns/op | packets/s |\n");
  std::printf("|----------|------:|--------------------:|--------------------:|----------:|\n");
  for (const std::string kind : {"switch", "firewall"}) {
    for (const int rule_count : kRuleCounts) {
      auto backend = MakeBackend(kind);
      net::ConnectivityCache cache(backend.get());
      for (net::NodeId n = 0; n < kNodes; ++n) {
        cache.AddNode(n);
      }
      InstallRules(backend.get(), rule_count);
      // Warm up, then measure; fewer legacy iterations at large tables.
      const int legacy_iters = rule_count >= 100 ? 20000 : 200000;
      LegacyAllowsNs(backend.get(), 1000);
      const double legacy_ns = LegacyAllowsNs(backend.get(), legacy_iters);
      CachedAllowsNs(cache, 1000);
      const double cached_ns = CachedAllowsNs(cache, 2000000);
      const double pps = PacketsPerSecond(kind, rule_count, 200000);
      std::printf("| %-8s | %5d | %19.1f | %19.1f | %9.0f |\n", kind.c_str(),
                  rule_count, legacy_ns, cached_ns, pps);
    }
  }

  std::printf("\nRule churn, 1000 rules (total us):\n");
  std::printf("| backend  | install us | remove us |\n");
  std::printf("|----------|-----------:|----------:|\n");
  for (const std::string kind : {"switch", "firewall"}) {
    const auto [install_us, remove_us] = ChurnMicros(kind, 1000);
    std::printf("| %-8s | %10.0f | %9.0f |\n", kind.c_str(), install_us, remove_us);
  }
  return 0;
}
