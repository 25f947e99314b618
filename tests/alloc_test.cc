// Allocation regression tests for the event and message path.
//
// This binary replaces the global operator new with a counting one, so a
// test can assert how many heap allocations a stretch of simulation makes
// once its containers have warmed up: a timer that reschedules itself
// allocates nothing, and a delivered message allocates only the message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>

#include "cluster/process.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace {

struct Ping final : public net::Message {
  std::string_view TypeName() const override { return "alloc.Ping"; }
};

// Arms one Every timer and one self-rescheduling After chain.
class Ticker : public cluster::Process {
 public:
  Ticker(sim::Simulator* simulator, net::Network* network)
      : Process(simulator, network, 1, "ticker") {}

  uint64_t every_ticks = 0;
  uint64_t after_ticks = 0;

 protected:
  void OnStart() override {
    Every(sim::Milliseconds(1), [this]() { ++every_ticks; });
    ArmAfter();
  }
  void OnMessage(const net::Envelope&) override {}

 private:
  void ArmAfter() {
    After(sim::Microseconds(700), [this]() {
      ++after_ticks;
      ArmAfter();
    });
  }
};

TEST(Allocations, SelfReschedulingTimersAllocateNothing) {
  sim::Simulator simulator;
  net::SwitchPartitioner backend;
  net::Network network(&simulator, &backend);
  Ticker ticker(&simulator, &network);
  ticker.Boot();
  simulator.RunFor(sim::Milliseconds(100));  // warm-up: queue capacity settles

  const uint64_t before = g_allocations;
  const uint64_t ticks_before = ticker.every_ticks + ticker.after_ticks;
  simulator.RunFor(sim::Seconds(5));
  const uint64_t allocations = g_allocations - before;
  const uint64_t ticks = ticker.every_ticks + ticker.after_ticks - ticks_before;

  EXPECT_GE(ticks, 10000u);
  EXPECT_EQ(allocations, 0u);
}

TEST(Allocations, ADeliveredSendAllocatesOnlyItsMessage) {
  sim::Simulator simulator;
  net::SwitchPartitioner backend;
  net::Network network(&simulator, &backend);
  int received = 0;
  network.Register(1, [](const net::Envelope&) {});
  network.Register(2, [&received](const net::Envelope&) { ++received; });
  for (int i = 0; i < 100; ++i) {  // warm-up
    network.SendNew<Ping>(1, 2);
  }
  simulator.RunUntilIdle();

  for (int i = 0; i < 100; ++i) {
    const uint64_t before = g_allocations;
    network.SendNew<Ping>(1, 2);
    simulator.RunUntilIdle();
    const uint64_t allocations = g_allocations - before;
    ASSERT_EQ(allocations, 1u) << "send " << i;  // the make_shared message
  }
  EXPECT_EQ(received, 200);
}

}  // namespace
