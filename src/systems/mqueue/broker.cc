#include "systems/mqueue/broker.h"

#include <algorithm>

namespace mqueue {

namespace {
constexpr char kMasterPath[] = "/mq/master";
}  // namespace

Broker::Broker(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> brokers, net::NodeId zk)
    : cluster::Process(simulator, network, id, "mq.b" + std::to_string(id)),
      options_(options),
      brokers_(std::move(brokers)),
      zk_(zk) {
  s_.detector =
      cluster::FailureDetector(id, brokers_, {options.heartbeat_interval, options.miss_threshold});
}

void Broker::OnStart() {
  s_.last_zk_pong = Now();
  s_.detector.Reset(Now());
  // Stagger the initial mastership race so startup is deterministic; the
  // registry's first-create-wins rule is the real arbiter.
  const auto index = static_cast<sim::Duration>(
      std::find(brokers_.begin(), brokers_.end(), id()) - brokers_.begin());
  After(sim::Milliseconds(1) + index * sim::Milliseconds(5), [this]() { TryBecomeMaster(); });
  Every(options_.heartbeat_interval, [this]() { Tick(); });
}

size_t Broker::QueueSize(const std::string& queue) const {
  auto it = s_.queues.find(queue);
  return it == s_.queues.end() ? 0 : it->second.size();
}

bool Broker::QueueContains(const std::string& queue, const std::string& value) const {
  auto it = s_.queues.find(queue);
  if (it == s_.queues.end()) {
    return false;
  }
  return std::find(it->second.begin(), it->second.end(), value) != it->second.end();
}

bool Broker::LeaseValid() const {
  return Now() - s_.last_zk_pong <= options_.zk_session_timeout / 2;
}

void Broker::Tick() {
  Send<zksvc::ZkPing>(zk_);
  for (net::NodeId peer : brokers_) {
    if (peer != id()) {
      Send<cluster::HeartbeatMsg>(peer, incarnation());
    }
  }
  if (s_.is_master) {
    // Verify mastership against the registry (catches session expiry and a
    // replacement master after a heal).
    auto get = std::make_shared<zksvc::ZkGet>();
    get->request_id = s_.next_zk_request++;
    get->path = kMasterPath;
    SendEnvelope(zk_, get);

    if (options_.resign_when_isolated) {
      size_t reachable = 1;
      for (net::NodeId peer : brokers_) {
        if (peer != id() && s_.detector.IsAlive(peer, Now())) {
          ++reachable;
        }
      }
      if (reachable < Majority()) {
        ResignMastership("cannot reach a majority of replicas");
      }
    }
  }
}

void Broker::TryBecomeMaster() {
  if (s_.is_master || s_.create_pending) {
    return;
  }
  s_.create_pending = true;
  auto create = std::make_shared<zksvc::ZkCreate>();
  create->request_id = s_.next_zk_request++;
  create->path = kMasterPath;
  create->data = std::to_string(id());
  create->ephemeral = true;
  SendEnvelope(zk_, create);
  // If the registry is unreachable the reply never comes; retry later.
  After(options_.zk_session_timeout, [this]() {
    if (s_.create_pending) {
      s_.create_pending = false;
      TryBecomeMaster();
    }
  });
}

void Broker::ResignMastership(const std::string& reason) {
  TraceEvent("resign", reason);
  s_.is_master = false;
  auto del = std::make_shared<zksvc::ZkDelete>();
  del->path = kMasterPath;
  SendEnvelope(zk_, del);
  {
    auto watch = std::make_shared<zksvc::ZkWatch>();
    watch->path = kMasterPath;
    SendEnvelope(zk_, watch);
  }
}

void Broker::ApplyLocal(QueueOp op, const std::string& queue, const std::string& value) {
  std::deque<std::string>& q = s_.queues[queue];
  if (op == QueueOp::kEnqueue) {
    if (std::find(q.begin(), q.end(), value) == q.end()) {
      q.push_back(value);
    }
  } else {
    auto it = std::find(q.begin(), q.end(), value);
    if (it != q.end()) {
      q.erase(it);
    }
  }
}

void Broker::Reply(net::NodeId client, uint64_t request_id, bool ok, const std::string& value,
                   bool not_master) {
  auto reply = std::make_shared<ClientQueueReply>();
  reply->request_id = request_id;
  reply->ok = ok;
  reply->not_master = not_master;
  reply->value = value;
  SendEnvelope(client, reply);
}

void Broker::HandleClientRequest(const net::Envelope& envelope,
                                 const ClientQueueRequest& request) {
  if (!s_.is_master || (options_.require_zk_lease && !LeaseValid())) {
    Reply(envelope.src, request.request_id, /*ok=*/false, "", /*not_master=*/true);
    return;
  }
  if (request.op == QueueOp::kEnqueue) {
    ApplyLocal(QueueOp::kEnqueue, request.queue, request.value);
    const uint64_t seq = s_.next_seq++;
    PendingOp pending;
    pending.client = envelope.src;
    pending.request_id = request.request_id;
    pending.op = QueueOp::kEnqueue;
    pending.queue = request.queue;
    pending.value = request.value;
    pending.acks.insert(id());
    pending.needed = Majority();
    for (net::NodeId peer : brokers_) {
      if (peer == id()) {
        continue;
      }
      auto repl = std::make_shared<ReplOp>();
      repl->seq = seq;
      repl->op = QueueOp::kEnqueue;
      repl->queue = request.queue;
      repl->value = request.value;
      SendEnvelope(peer, repl);
    }
    if (pending.acks.size() >= pending.needed) {
      Reply(envelope.src, request.request_id, /*ok=*/true, "");
      return;
    }
    pending.timer = After(options_.replication_timeout, [this, seq]() {
      FinishOp(seq, /*ok=*/false);
    });
    s_.pending.emplace(seq, std::move(pending));
    return;
  }

  // Dequeue.
  std::deque<std::string>& q = s_.queues[request.queue];
  if (q.empty()) {
    Reply(envelope.src, request.request_id, /*ok=*/true, "");
    return;
  }
  const std::string candidate = q.front();
  if (!options_.sync_dequeue) {
    // The AMQ-6978 path: commit locally, replicate asynchronously. An
    // isolated master hands the message out even though the replicas (and a
    // future new master) still hold it.
    q.pop_front();
    for (net::NodeId peer : brokers_) {
      if (peer == id()) {
        continue;
      }
      auto repl = std::make_shared<ReplOp>();
      repl->op = QueueOp::kDequeue;
      repl->queue = request.queue;
      repl->value = candidate;
      SendEnvelope(peer, repl);
    }
    Reply(envelope.src, request.request_id, /*ok=*/true, candidate);
    return;
  }
  const uint64_t seq = s_.next_seq++;
  PendingOp pending;
  pending.client = envelope.src;
  pending.request_id = request.request_id;
  pending.op = QueueOp::kDequeue;
  pending.queue = request.queue;
  pending.value = candidate;
  pending.acks.insert(id());
  pending.needed = Majority();
  for (net::NodeId peer : brokers_) {
    if (peer == id()) {
      continue;
    }
    auto repl = std::make_shared<ReplOp>();
    repl->seq = seq;
    repl->op = QueueOp::kDequeue;
    repl->queue = request.queue;
    repl->value = candidate;
    SendEnvelope(peer, repl);
  }
  if (pending.acks.size() >= pending.needed) {
    s_.pending.emplace(seq, std::move(pending));
    FinishOp(seq, /*ok=*/true);
    return;
  }
  pending.timer = After(options_.replication_timeout, [this, seq]() {
    FinishOp(seq, /*ok=*/false);
  });
  s_.pending.emplace(seq, std::move(pending));
}

void Broker::HandleReplOp(const net::Envelope& envelope, const ReplOp& msg) {
  ApplyLocal(msg.op, msg.queue, msg.value);
  if (msg.seq != 0) {
    auto ack = std::make_shared<ReplAck>();
    ack->seq = msg.seq;
    SendEnvelope(envelope.src, ack);
  }
}

void Broker::HandleReplAck(const net::Envelope& envelope, const ReplAck& msg) {
  auto it = s_.pending.find(msg.seq);
  if (it == s_.pending.end()) {
    return;
  }
  it->second.acks.insert(envelope.src);
  if (it->second.acks.size() >= it->second.needed) {
    FinishOp(msg.seq, /*ok=*/true);
  }
}

void Broker::FinishOp(uint64_t seq, bool ok) {
  auto it = s_.pending.find(seq);
  if (it == s_.pending.end()) {
    return;
  }
  PendingOp pending = std::move(it->second);
  s_.pending.erase(it);
  simulator()->Cancel(pending.timer);
  if (pending.op == QueueOp::kDequeue) {
    if (ok) {
      ApplyLocal(QueueOp::kDequeue, pending.queue, pending.value);
      Reply(pending.client, pending.request_id, /*ok=*/true, pending.value);
      return;
    }
    // Compensate replicas that already removed the message.
    for (net::NodeId peer : pending.acks) {
      if (peer == id()) {
        continue;
      }
      auto repl = std::make_shared<ReplOp>();
      repl->op = QueueOp::kEnqueue;
      repl->queue = pending.queue;
      repl->value = pending.value;
      SendEnvelope(peer, repl);
    }
    Reply(pending.client, pending.request_id, /*ok=*/false, "");
    return;
  }
  Reply(pending.client, pending.request_id, ok, "");
}

void Broker::OnMessage(const net::Envelope& envelope) {
  if (std::find(brokers_.begin(), brokers_.end(), envelope.src) != brokers_.end()) {
    s_.detector.RecordHeartbeat(envelope.src, Now());
  }
  const net::Message& msg = *envelope.msg;
  if (net::As<zksvc::ZkPong>(msg) != nullptr) {
    s_.last_zk_pong = Now();
    return;
  }
  if (auto* create_reply = net::As<zksvc::ZkCreateReply>(msg)) {
    s_.create_pending = false;
    if (create_reply->ok) {
      s_.is_master = true;
      TraceEvent("master", "acquired mastership");
    } else {
      {
    auto watch = std::make_shared<zksvc::ZkWatch>();
    watch->path = kMasterPath;
    SendEnvelope(zk_, watch);
  }
    }
    return;
  }
  if (auto* event = net::As<zksvc::ZkEvent>(msg)) {
    if (event->deleted && !s_.is_master) {
      TryBecomeMaster();
    } else if (!s_.is_master) {
      {
    auto watch = std::make_shared<zksvc::ZkWatch>();
    watch->path = kMasterPath;
    SendEnvelope(zk_, watch);
  }  // re-arm
    }
    return;
  }
  if (auto* get_reply = net::As<zksvc::ZkGetReply>(msg)) {
    if (s_.is_master) {
      if (!get_reply->exists) {
        // Our session expired while partitioned away; the entry is gone.
        s_.is_master = false;
        TraceEvent("demoted", "mastership entry vanished");
        TryBecomeMaster();
      } else if (get_reply->data != std::to_string(id())) {
        // Someone else took over; fall in line and resync.
        s_.is_master = false;
        TraceEvent("demoted", "new master=" + get_reply->data);
        const net::NodeId new_master = static_cast<net::NodeId>(std::stol(get_reply->data));
        Send<QueueSyncRequest>(new_master);
        {
    auto watch = std::make_shared<zksvc::ZkWatch>();
    watch->path = kMasterPath;
    SendEnvelope(zk_, watch);
  }
      }
    }
    return;
  }
  if (net::As<QueueSyncRequest>(msg) != nullptr) {
    auto snapshot = std::make_shared<QueueSnapshot>();
    snapshot->queues = s_.queues;
    SendEnvelope(envelope.src, snapshot);
    return;
  }
  if (auto* snapshot = net::As<QueueSnapshot>(msg)) {
    if (!s_.is_master) {
      s_.queues = snapshot->queues;
      TraceEvent("synced");
    }
    return;
  }
  if (auto* request = net::As<ClientQueueRequest>(msg)) {
    HandleClientRequest(envelope, *request);
    return;
  }
  if (auto* repl = net::As<ReplOp>(msg)) {
    HandleReplOp(envelope, *repl);
    return;
  }
  if (auto* ack = net::As<ReplAck>(msg)) {
    HandleReplAck(envelope, *ack);
    return;
  }
}

}  // namespace mqueue
