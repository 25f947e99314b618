// The simulated message network.
//
// Processes register a delivery handler under their NodeId and send messages
// to peers; the network applies the partition backend's verdict, a latency
// model, and optional per-link flakiness, then schedules delivery on the
// simulator. Dropped messages are recorded in the trace log, which is how
// scenario tests explain which partition rule bit.
//
// Partition verdicts are read from a ConnectivityCache over the registered
// nodes, so the per-packet cost is O(1) no matter how many rules a test has
// installed; the backends keep the cache coherent on every Block/Unblock.
//
// All network randomness (link-loss draws, latency jitter) comes from a
// dedicated RNG substream forked from the simulator's seed at construction,
// so toggling jitter or flakiness never perturbs the random decisions the
// systems under test make from the simulator's own stream.

#ifndef NET_NETWORK_H_
#define NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "net/connectivity.h"
#include "net/message.h"
#include "net/partition.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace net {

struct LatencyModel {
  sim::Duration base = sim::Microseconds(200);
  sim::Duration jitter = sim::Microseconds(100);  // uniform in [0, jitter]
};

// A message-level fault: drop, delay, or reorder messages of one concrete
// type (matched against Message::TypeName()), optionally restricted to one
// src/dst and to the first `limit` matching messages. This is the scenario
// DSL's fault model beyond partitions — a partition kills every message on
// a link, while a fault rule can kill only the heartbeats and let the data
// traffic through (or vice versa), which no partition can express.
//
// Semantics (all deterministic):
//   kDrop     the message is dropped at send time, after the partition and
//             flaky-link checks, recorded as a "(fault drop)" trace drop.
//   kDelay    delivery is postponed by `delay` on top of the latency model.
//   kReorder  pairwise swap: the first matching message is held; when the
//             next one arrives, it is delivered first and the held one is
//             released just after it. A held message still waiting when the
//             rule is removed (or ClearFaultRules runs) is flushed with its
//             originally drawn delay.
struct FaultRule {
  enum class Action { kDrop, kDelay, kReorder };
  std::string type_name;         // exact Message::TypeName() match
  Action action = Action::kDrop;
  sim::Duration delay = 0;       // extra latency for kDelay
  uint64_t limit = 0;            // max matched messages; 0 = unlimited
  NodeId src = kInvalidNode;     // restrict to a sender; kInvalidNode = any
  NodeId dst = kInvalidNode;     // restrict to a receiver; kInvalidNode = any
};
using FaultRuleId = uint64_t;

class Network {
 public:
  using Handler = std::function<void(const Envelope&)>;

  Network(sim::Simulator* simulator, PartitionBackend* backend)
      : simulator_(simulator),
        backend_(backend),
        connectivity_(backend) {
    s_.rng = simulator->Rand().Fork();
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches a process. Re-registering a NodeId replaces its handler (used
  // by restart).
  //
  // Crashed-node semantics: passing a null handler detaches the process but
  // keeps the node in Universe() — a crashed host is still a host, with an
  // address, firewall chains, and switch ports; it just answers nothing.
  // Messages to it still traverse the partition rules and latency model and
  // are dropped at delivery time, counted as "no receiver" drops (same as
  // messages to a node that never registered).
  void Register(NodeId node, Handler handler);

  // Sends a message. The message is dropped when the partition backend
  // forbids the link at send or delivery time, when the link is flaky and
  // the loss draw fires, or when the destination has no handler.
  void Send(NodeId src, NodeId dst, std::shared_ptr<const Message> msg);

  // Convenience for freshly constructed message objects.
  template <typename M, typename... Args>
  void SendNew(NodeId src, NodeId dst, Args&&... args) {
    Send(src, dst, std::make_shared<const M>(std::forward<Args>(args)...));
  }

  // Sets a directed link loss probability in [0, 1]; flaky links are one of
  // the causes of partial partitions the paper cites.
  void SetLinkLoss(NodeId src, NodeId dst, double loss);

  // --- message-level faults (scenario DSL) ---
  //
  // Rules are consulted in Send, after the partition verdict and the
  // flaky-link draw, in installation order; the first matching rule acts.
  // With no rules installed the send path is byte-identical to a build
  // without this hook: no extra trace records, no extra RNG draws.
  FaultRuleId AddFaultRule(const FaultRule& rule);
  // Removes one rule, flushing its held reorder message if any. Unknown ids
  // are ignored (a phase may end after an explicit clear-faults step).
  void RemoveFaultRule(FaultRuleId id);
  // Removes every rule, flushing all held messages.
  void ClearFaultRules();
  bool HasFaultRules() const { return !s_.faults.empty(); }
  // Messages a fault rule acted on (dropped, delayed, held, or swapped).
  uint64_t messages_faulted() const { return s_.messages_faulted; }

  void set_latency(LatencyModel latency) { s_.latency = latency; }
  const LatencyModel& latency() const { return s_.latency; }

  PartitionBackend* backend() const { return backend_; }
  const ConnectivityCache& connectivity() const { return connectivity_; }
  sim::Simulator* simulator() const { return simulator_; }

  // All node ids ever registered, in order (the partition API's universe).
  // Includes crashed (null-handler) nodes.
  Group Universe() const;

  uint64_t messages_sent() const { return s_.messages_sent; }
  uint64_t messages_delivered() const { return s_.messages_delivered; }
  uint64_t messages_dropped() const { return s_.messages_dropped; }

  // One installed fault rule plus its match state. Part of Network::State:
  // a forked run must resume with the same match counters and held reorder
  // message the straight-through run had at the snapshot point. The held
  // envelope's message is an immutable value object, safe to share between
  // a snapshot and the live network.
  struct InstalledFault {
    FaultRule rule;
    uint64_t matched = 0;        // messages this rule has acted on
    bool holding = false;        // kReorder: a message is held back
    Envelope held;
    sim::Duration held_delay = 0;  // the held message's drawn delivery delay
  };

  // --- snapshot / restore (NEAT fork executor) ---
  //
  // Value state of the network itself: the private RNG substream, the
  // latency/loss configuration, the message counters, and the fault-rule
  // table with its match state. Handlers are NOT captured — they are
  // closures over live processes, and Process kernel restore re-registers
  // or detaches them. The connectivity cache is not captured either:
  // restoring the partition backend's rules re-syncs it
  // (PartitionBackend::RestoreRules notifies every attached cache).
  struct State {
    sim::Rng rng{1};  // network-private substream: loss + jitter draws only
    LatencyModel latency;
    std::map<std::pair<NodeId, NodeId>, double> link_loss;
    uint64_t messages_sent = 0;
    uint64_t messages_delivered = 0;
    uint64_t messages_dropped = 0;
    std::map<FaultRuleId, InstalledFault> faults;
    FaultRuleId next_fault_id = 1;
    uint64_t messages_faulted = 0;
  };
  State CaptureState() const { return s_; }
  void RestoreState(const State& state) { s_ = state; }

 private:
  // The closure of a scheduled delivery, stored inline in its sim::Callback.
  struct DeliveryEvent;

  void Deliver(Envelope envelope);
  void ScheduleDelivery(Envelope envelope, sim::Duration delay);
  // Returns true when a fault rule consumed the envelope (dropped or held);
  // a kDelay match adds to *delay and lets the send proceed.
  bool ApplyFaults(Envelope& envelope, sim::Duration* delay);
  void FlushHeldMessage(InstalledFault& fault);

  sim::Simulator* simulator_;
  PartitionBackend* backend_;
  // detlint: allow(snapshot-field): derived reachability cache; invalidated on every rule change and rebuilt on demand
  ConnectivityCache connectivity_;
  // detlint: allow(snapshot-field): delivery closures are re-registered by Process::RestoreKernel, not value-copied
  std::map<NodeId, Handler> handlers_;
  State s_;
};

}  // namespace net

#endif  // NET_NETWORK_H_
