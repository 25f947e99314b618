#include "cluster/process.h"

#include <cassert>

namespace cluster {

Process::Process(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                 std::string name)
    : simulator_(simulator), network_(network), id_(id), name_(std::move(name)) {}

Process::~Process() {
  if (!s_.crashed) {
    network_->Register(id_, nullptr);
  }
}

void Process::RegisterHandler() {
  network_->Register(id_, [this](const net::Envelope& envelope) {
    if (!s_.crashed) {
      OnMessage(envelope);
    }
  });
}

void Process::Boot() {
  assert(s_.crashed && "Boot on a running process");
  s_.crashed = false;
  ++s_.epoch;
  RegisterHandler();
  if (s_.booted_once) {
    OnRestart();
  }
  s_.booted_once = true;
  OnStart();
}

void Process::Crash() {
  if (s_.crashed) {
    return;
  }
  s_.crashed = true;
  ++s_.epoch;  // invalidates every pending timer
  network_->Register(id_, nullptr);
  TraceEvent("crash");
  OnCrash();
}

void Process::Restart() {
  assert(s_.crashed && "Restart on a running process");
  TraceEvent("restart");
  Boot();
}

void Process::RestoreKernel(const KernelState& state) {
  if (s_.crashed != state.crashed) {
    if (state.crashed) {
      network_->Register(id_, nullptr);
    } else {
      RegisterHandler();
    }
  }
  s_ = state;
}

sim::EventId Process::After(sim::Duration delay, std::function<void()> fn) {
  const uint64_t epoch = s_.epoch;
  return simulator_->Schedule(delay, [this, epoch, fn = std::move(fn)]() {
    if (!s_.crashed && s_.epoch == epoch) {
      fn();
    }
  });
}

void Process::Every(sim::Duration period, std::function<void()> fn) {
  ScheduleTick(s_.epoch, period, std::move(fn));
}

void Process::ScheduleTick(uint64_t epoch, sim::Duration period, std::function<void()> fn) {
  simulator_->Schedule(period, [this, epoch, period, fn = std::move(fn)]() mutable {
    if (s_.crashed || s_.epoch != epoch) {
      return;
    }
    fn();
    ScheduleTick(epoch, period, std::move(fn));
  });
}

void Process::TraceEvent(const std::string& event, const std::string& detail) const {
  sim::TraceLog& trace = simulator_->Trace();
  const uint64_t id = trace.Append(simulator_->Now(), name_, event, detail);
  // In causal mode this record is a state transition on the happens-before
  // graph: whatever the handler does next (send a message, record another
  // transition) was caused by it, so rebind the cause context. The bind is
  // scoped to the current event by the simulator's per-event CauseScope.
  if (trace.causal() && id != 0) {
    trace.BindCause(id);
  }
}

}  // namespace cluster
