#include "net/network.h"

#include <string>
#include <string_view>

namespace net {
namespace {

// "src->dst Type" followed by `suffix`, built in one allocation (the ids'
// strings fit the small-string buffer).
std::string LinkDetail(NodeId src, NodeId dst, std::string_view type,
                       std::string_view suffix = {}) {
  const std::string from = std::to_string(src);
  const std::string to = std::to_string(dst);
  std::string detail;
  detail.reserve(from.size() + 2 + to.size() + 1 + type.size() + suffix.size());
  detail.append(from).append("->").append(to).append(1, ' ').append(type).append(suffix);
  return detail;
}

}  // namespace

struct Network::DeliveryEvent {
  Network* network;
  Envelope envelope;
  void operator()() { network->Deliver(std::move(envelope)); }
};

void Network::Register(NodeId node, Handler handler) {
  connectivity_.AddNode(node);
  if (handler) {
    handlers_[node] = std::move(handler);
  } else {
    // Crashed node: stays in the universe (and the connectivity cache) with
    // no handler; deliveries to it count as "no receiver" drops.
    handlers_[node] = nullptr;
  }
}

Group Network::Universe() const {
  Group out;
  out.reserve(handlers_.size());
  for (const auto& [node, handler] : handlers_) {
    out.push_back(node);
  }
  return out;
}

void Network::SetLinkLoss(NodeId src, NodeId dst, double loss) {
  if (loss <= 0.0) {
    s_.link_loss.erase({src, dst});
  } else {
    s_.link_loss[{src, dst}] = loss;
  }
}

void Network::Send(NodeId src, NodeId dst, std::shared_ptr<const Message> msg) {
  ++s_.messages_sent;
  Envelope envelope{src, dst, simulator_->Now(), std::move(msg)};

  // Causal tracing: record the send so the deliver (or in-flight drop) can
  // name it as its cause. The send record itself inherits the active cause
  // context — the deliver record of the message whose handler sent this
  // one — which is what stitches multi-hop chains.
  if (simulator_->Trace().causal()) {
    envelope.send_record =
        simulator_->Trace().Append(simulator_->Now(), "net", "send",
                                   LinkDetail(src, dst, envelope.msg->TypeName()));
  }

  if (!connectivity_.Allows(src, dst)) {
    ++s_.messages_dropped;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               LinkDetail(src, dst, envelope.msg->TypeName(),
                                          " (partitioned at send)"));
    return;
  }
  auto loss = s_.link_loss.find({src, dst});
  if (loss != s_.link_loss.end() && s_.rng.NextBool(loss->second)) {
    ++s_.messages_dropped;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               LinkDetail(src, dst, envelope.msg->TypeName(), " (flaky link)"));
    return;
  }

  sim::Duration delay = s_.latency.base;
  if (s_.latency.jitter > 0) {
    delay += static_cast<sim::Duration>(
        s_.rng.NextBelow(static_cast<uint64_t>(s_.latency.jitter) + 1));
  }
  if (!s_.faults.empty() && ApplyFaults(envelope, &delay)) {
    return;  // dropped or held by a fault rule
  }
  ScheduleDelivery(std::move(envelope), delay);
}

void Network::ScheduleDelivery(Envelope envelope, sim::Duration delay) {
  static_assert(sim::Callback::kStoredInline<DeliveryEvent>,
                "a delivery must not allocate its event closure");
  simulator_->Schedule(delay, DeliveryEvent{this, std::move(envelope)});
}

FaultRuleId Network::AddFaultRule(const FaultRule& rule) {
  const FaultRuleId id = s_.next_fault_id++;
  s_.faults[id].rule = rule;
  return id;
}

void Network::RemoveFaultRule(FaultRuleId id) {
  auto it = s_.faults.find(id);
  if (it == s_.faults.end()) {
    return;
  }
  FlushHeldMessage(it->second);
  s_.faults.erase(it);
}

void Network::ClearFaultRules() {
  for (auto& [id, fault] : s_.faults) {
    FlushHeldMessage(fault);
  }
  s_.faults.clear();
}

void Network::FlushHeldMessage(InstalledFault& fault) {
  if (!fault.holding) {
    return;
  }
  simulator_->Trace().Append(
      simulator_->Now(), "net", "fault",
      LinkDetail(fault.held.src, fault.held.dst, fault.held.msg->TypeName(), " flush"),
      fault.held.send_record);
  ScheduleDelivery(std::move(fault.held), fault.held_delay);
  fault.holding = false;
  fault.held = Envelope{};
}

bool Network::ApplyFaults(Envelope& envelope, sim::Duration* delay) {
  const std::string_view type = envelope.msg->TypeName();
  for (auto& [id, fault] : s_.faults) {
    const FaultRule& rule = fault.rule;
    if (rule.type_name != type) {
      continue;
    }
    if (rule.src != kInvalidNode && rule.src != envelope.src) {
      continue;
    }
    if (rule.dst != kInvalidNode && rule.dst != envelope.dst) {
      continue;
    }
    if (rule.limit != 0 && fault.matched >= rule.limit) {
      continue;
    }
    ++fault.matched;
    ++s_.messages_faulted;
    const auto detail = [src = envelope.src, dst = envelope.dst, type](std::string_view suffix) {
      return LinkDetail(src, dst, type, suffix);
    };
    switch (rule.action) {
      case FaultRule::Action::kDrop:
        ++s_.messages_dropped;
        simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                                   detail(" (fault drop)"), envelope.send_record);
        return true;
      case FaultRule::Action::kDelay:
        *delay += rule.delay;
        simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                   detail(" delay"), envelope.send_record);
        return false;  // deliver, later
      case FaultRule::Action::kReorder:
        if (!fault.holding) {
          fault.holding = true;
          fault.held = std::move(envelope);
          fault.held_delay = *delay;
          simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                     detail(" hold"), fault.held.send_record);
          return true;
        }
        // The successor goes out with its own delay; the held predecessor
        // follows just after it, completing the pairwise swap.
        simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                   detail(" swap"), envelope.send_record);
        ScheduleDelivery(std::move(envelope), *delay);
        ScheduleDelivery(std::move(fault.held), *delay + sim::Microseconds(1));
        fault.holding = false;
        fault.held = Envelope{};
        return true;
    }
  }
  return false;
}

void Network::Deliver(Envelope envelope) {
  // A partition installed while the packet was in flight also kills it:
  // switches and firewalls drop queued packets when rules change.
  if (!connectivity_.Allows(envelope.src, envelope.dst)) {
    ++s_.messages_dropped;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               LinkDetail(envelope.src, envelope.dst, envelope.msg->TypeName(),
                                          " (partitioned in flight)"),
                               envelope.send_record);
    return;
  }
  auto it = handlers_.find(envelope.dst);
  if (it == handlers_.end() || !it->second) {
    ++s_.messages_dropped;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               LinkDetail(envelope.src, envelope.dst, envelope.msg->TypeName(),
                                          " (no receiver)"),
                               envelope.send_record);
    return;
  }
  ++s_.messages_delivered;
  if (simulator_->Trace().causal()) {
    // Stamp the send->deliver edge, then run the handler under a cause
    // scope so every record it appends (state transitions, sends of
    // follow-on messages) names this delivery as its cause.
    const uint64_t deliver_record = simulator_->Trace().Append(
        simulator_->Now(), "net", "deliver",
        LinkDetail(envelope.src, envelope.dst, envelope.msg->TypeName()),
        envelope.send_record);
    sim::CauseScope scope(simulator_->Trace(), deliver_record);
    it->second(envelope);
    return;
  }
  it->second(envelope);
}

}  // namespace net
