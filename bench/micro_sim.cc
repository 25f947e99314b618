// Microbenchmarks (google-benchmark): the cost of the substrate — event
// scheduling, message delivery, partition-rule evaluation on both backends
// as the rule table grows, and full pbkv client operations.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"
#include "systems/eventualkv/cluster.h"
#include "systems/pbkv/cluster.h"
#include "systems/raftkv/cluster.h"

namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.Trace().set_enabled(false);
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(i, []() {});
    }
    simulator.RunUntilIdle();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// The same loop with event retention on, as under a fork executor: every
// schedule also copies its closure into the retention log.
void BM_SimulatorScheduleRunRetained(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.Trace().set_enabled(false);
    simulator.SetEventRetention(true);
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(i, []() {});
    }
    simulator.RunUntilIdle();
    benchmark::DoNotOptimize(simulator.retained_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRunRetained);

void BM_SimulatorTimerCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.Trace().set_enabled(false);
    for (int i = 0; i < 1000; ++i) {
      sim::EventId id = simulator.Schedule(1000, []() {});
      simulator.Cancel(id);
    }
    simulator.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerCancel);

struct Nop final : public net::Message {
  std::string_view TypeName() const override { return "Nop"; }
};

void BM_NetworkDelivery(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.Trace().set_enabled(false);
    net::SwitchPartitioner backend;
    net::Network network(&simulator, &backend);
    int received = 0;
    network.Register(1, [&received](const net::Envelope&) { ++received; });
    network.Register(2, [](const net::Envelope&) {});
    auto msg = std::make_shared<const Nop>();
    for (int i = 0; i < 1000; ++i) {
      network.Send(2, 1, msg);
    }
    simulator.RunUntilIdle();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkDelivery);

template <typename Backend>
void BM_BackendAllows(benchmark::State& state) {
  Backend backend;
  const int rules = static_cast<int>(state.range(0));
  for (int i = 0; i < rules; ++i) {
    backend.Block({i}, {i + 1});
  }
  net::NodeId probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.Allows(probe, probe + 1));
    probe = (probe + 1) % 64;
  }
}
BENCHMARK_TEMPLATE(BM_BackendAllows, net::SwitchPartitioner)->Arg(1)->Arg(16)->Arg(256);
BENCHMARK_TEMPLATE(BM_BackendAllows, net::FirewallPartitioner)->Arg(1)->Arg(16)->Arg(256);

void BM_PbkvPutGet(benchmark::State& state) {
  pbkv::Cluster::Config config;
  pbkv::Cluster cluster(config);
  cluster.simulator().Trace().set_enabled(false);
  cluster.Settle(sim::Milliseconds(500));
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i % 16);
    cluster.Put(0, key, "v" + std::to_string(i));
    auto get = cluster.Get(1, key);
    benchmark::DoNotOptimize(get.value.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PbkvPutGet);

void BM_PbkvFailoverCycle(benchmark::State& state) {
  for (auto _ : state) {
    pbkv::Cluster::Config config;
    pbkv::Cluster cluster(config);
    cluster.simulator().Trace().set_enabled(false);
    cluster.Settle(sim::Milliseconds(300));
    auto partition = cluster.partitioner().Complete({1}, {2, 3});
    cluster.Settle(sim::Seconds(1));
    cluster.partitioner().Heal(partition);
    cluster.Settle(sim::Seconds(1));
    benchmark::DoNotOptimize(cluster.FindPrimary());
  }
}
BENCHMARK(BM_PbkvFailoverCycle);

void BM_RaftCommit(benchmark::State& state) {
  raftkv::Cluster::Config config;
  config.num_servers = static_cast<int>(state.range(0));
  raftkv::Cluster cluster(config);
  cluster.simulator().Trace().set_enabled(false);
  cluster.WaitForLeader();
  cluster.Settle(sim::Milliseconds(300));
  int i = 0;
  for (auto _ : state) {
    auto put = cluster.Put(0, "k", "v" + std::to_string(i++));
    benchmark::DoNotOptimize(put.status);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaftCommit)->Arg(3)->Arg(5);

void BM_EkvAntiEntropyConvergence(benchmark::State& state) {
  // Virtual time for a partitioned write to reach every replica after the
  // heal, via anti-entropy alone (no hints, no read repair traffic).
  for (auto _ : state) {
    eventualkv::Cluster::Config config;
    config.options = eventualkv::CorrectOptions();
    config.options.write_quorum = 1;
    eventualkv::Cluster cluster(config);
    cluster.simulator().Trace().set_enabled(false);
    cluster.Settle(sim::Milliseconds(200));
    auto partition = cluster.partitioner().Complete({1}, {2, 3});
    cluster.Settle(sim::Milliseconds(300));
    cluster.client(0).set_contact(1);
    cluster.Put(0, "k", "v");
    cluster.partitioner().Heal(partition);
    const sim::Time heal_at = cluster.simulator().Now();
    cluster.simulator().RunUntilPredicate(
        [&cluster]() {
          return cluster.server(2).LocalGet("k").has_value() &&
                 cluster.server(3).LocalGet("k").has_value();
        },
        heal_at + sim::Seconds(10));
    benchmark::DoNotOptimize(cluster.simulator().Now() - heal_at);
  }
}
BENCHMARK(BM_EkvAntiEntropyConvergence);

}  // namespace

BENCHMARK_MAIN();
