// Base class for simulated processes (servers and clients).
//
// A Process owns a NodeId on the network, receives messages through
// OnMessage, and schedules work with epoch-guarded timers: crashing a
// process bumps its epoch so every pending timer from the previous
// incarnation silently expires, and restarting begins a fresh incarnation.
// This models the paper's crash API (NEAT "provides an API for crashing any
// group of nodes") and lets tests distinguish crashed nodes from partitioned
// ones — the distinction at the heart of the studied failures.

#ifndef CLUSTER_PROCESS_H_
#define CLUSTER_PROCESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "net/network.h"
#include "sim/simulator.h"

namespace cluster {

class Process {
 public:
  Process(sim::Simulator* simulator, net::Network* network, net::NodeId id, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Registers with the network and runs OnStart. Must be called once before
  // the simulation runs; Restart() re-boots after a crash.
  void Boot();

  // Halts the process: detaches from the network and invalidates all pending
  // timers. Messages in flight to this node are dropped on delivery.
  void Crash();

  // Re-boots a crashed process as a new incarnation (fresh epoch, OnRestart
  // then OnStart). Volatile state handling is up to the subclass.
  void Restart();

  net::NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool crashed() const { return s_.crashed; }
  uint64_t incarnation() const { return s_.epoch; }

  // --- snapshot / restore (NEAT fork executor) ---
  //
  // The kernel-level incarnation state. Subclasses capture their own fields
  // separately; this covers what Process itself owns. Restoring the epoch
  // exactly matters: pending timers retained by the simulator guard on
  // `s_.epoch == epoch`, so a rewound process must present the epoch its
  // timers were scheduled under.
  struct KernelState {
    uint64_t epoch = 0;
    bool crashed = true;  // not booted yet
    bool booted_once = false;
  };
  KernelState CaptureKernel() const { return s_; }
  // Reinstates the kernel state, re-registering with (or detaching from)
  // the network when the crashed-ness differs from the current one. Does
  // not run the OnStart/OnRestart/OnCrash hooks — the subclass restores its
  // own state to match.
  void RestoreKernel(const KernelState& state);

 protected:
  // Subclass hooks.
  virtual void OnStart() {}
  virtual void OnRestart() {}
  virtual void OnCrash() {}
  virtual void OnMessage(const net::Envelope& envelope) = 0;

  // Runs `fn` after `delay`, unless the process crashes first.
  sim::EventId After(sim::Duration delay, std::function<void()> fn);

  // Runs `fn` every `period`, starting one period from now, until crash.
  void Every(sim::Duration period, std::function<void()> fn);

  // Sends a message to a peer (or to self, which still traverses the
  // network and its partition rules — self-links are never partitioned).
  template <typename M, typename... Args>
  void Send(net::NodeId dst, Args&&... args) {
    network_->SendNew<M>(id_, dst, std::forward<Args>(args)...);
  }

  void SendEnvelope(net::NodeId dst, std::shared_ptr<const net::Message> msg) {
    network_->Send(id_, dst, std::move(msg));
  }

  // Appends a record to the simulation trace under this process's name.
  void TraceEvent(const std::string& event, const std::string& detail = "") const;

  sim::Simulator* simulator() const { return simulator_; }
  net::Network* network() const { return network_; }
  sim::Time Now() const { return simulator_->Now(); }

 private:
  // The closure of a scheduled Every tick, stored inline in its sim::Callback.
  struct TickEvent;

  void RegisterHandler();
  void ScheduleTick(uint64_t epoch, sim::Duration period, std::function<void()> fn);

  sim::Simulator* simulator_;
  net::Network* network_;
  const net::NodeId id_;
  const std::string name_;  // debug label; not part of the replayed state
  KernelState s_;
};

}  // namespace cluster

#endif  // CLUSTER_PROCESS_H_
