#include "systems/locksvc/server.h"

#include <algorithm>

namespace locksvc {

Server::Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> replicas)
    : cluster::Process(simulator, network, id, "locksvc.n" + std::to_string(id)),
      options_(options),
      replicas_(std::move(replicas)) {
  s_.view.insert(replicas_.begin(), replicas_.end());
  s_.detector =
      cluster::FailureDetector(id, replicas_, {options.heartbeat_interval, options.miss_threshold});
}

void Server::OnStart() {
  s_.detector.Reset(Now());
  Every(options_.heartbeat_interval, [this]() { Tick(); });
}

void Server::Tick() {
  for (net::NodeId peer : replicas_) {
    if (peer != id()) {
      Send<cluster::HeartbeatMsg>(peer, incarnation());
    }
  }
  if (options_.remove_unreachable) {
    for (net::NodeId peer : s_.detector.DeadPeers(Now())) {
      if (s_.view.erase(peer) != 0) {
        TraceEvent("view-remove", "peer=" + std::to_string(peer));
      }
    }
  }
  if (options_.reclaim_unreachable_clients) {
    std::vector<int> expired;
    for (const auto& [client, lease] : s_.leases) {
      if (!lease.holdings.empty() && Now() - lease.last_heard > options_.client_lease) {
        expired.push_back(client);
      }
    }
    for (int client : expired) {
      ReclaimClient(client);
    }
  }
}

int Server::LockHolder(const std::string& lock) const {
  auto it = s_.locks.find(lock);
  return it == s_.locks.end() ? 0 : it->second;
}

std::vector<int> Server::SemaphoreHolders(const std::string& semaphore) const {
  auto it = s_.semaphores.find(semaphore);
  if (it == s_.semaphores.end()) {
    return {};
  }
  return {it->second.holders.begin(), it->second.holders.end()};
}

bool Server::SemaphoreBroken(const std::string& semaphore) const {
  auto it = s_.semaphores.find(semaphore);
  return it != s_.semaphores.end() && it->second.broken;
}

int64_t Server::CounterValue(const std::string& counter) const {
  auto it = s_.counters.find(counter);
  return it == s_.counters.end() ? 0 : it->second;
}

size_t Server::QuorumNeeded() const {
  if (options_.quorum == Quorum::kMajorityOfCluster) {
    return replicas_.size() / 2 + 1;
  }
  return s_.view.size();  // every member of the (possibly shrunken) view
}

bool Server::ApplyLocal(ResourceKind kind, ClientOp op, const std::string& resource,
                        int client, int permits, int64_t* counter_value_out) {
  switch (kind) {
    case ResourceKind::kLock: {
      int& holder = s_.locks[resource];
      if (op == ClientOp::kAcquire) {
        if (holder != 0 && holder != client) {
          return false;
        }
        holder = client;
        return true;
      }
      if (holder != client) {
        return false;  // releasing a lock we do not hold
      }
      holder = 0;
      return true;
    }
    case ResourceKind::kSemaphore: {
      auto [it, inserted] = s_.semaphores.try_emplace(resource);
      Semaphore& sem = it->second;
      if (inserted) {
        sem.permits = permits;
      }
      if (op == ClientOp::kAcquire) {
        if (static_cast<int>(sem.holders.size()) >= sem.permits) {
          return false;
        }
        sem.holders.insert(client);
        return true;
      }
      auto holder = sem.holders.find(client);
      if (holder == sem.holders.end()) {
        // Releasing a permit that was reclaimed: the semaphore is corrupt
        // from here on (the Ignite post-heal corruption).
        sem.broken = true;
        TraceEvent("semaphore-broken", resource);
        return false;
      }
      sem.holders.erase(holder);
      return true;
    }
    case ResourceKind::kCounter: {
      int64_t& value = s_.counters[resource];
      if (op == ClientOp::kIncrement) {
        ++value;
      }
      if (counter_value_out != nullptr) {
        *counter_value_out = value;
      }
      return true;
    }
  }
  return false;
}

void Server::RollbackLocal(ResourceKind kind, const std::string& resource, int client) {
  if (kind == ResourceKind::kLock) {
    auto it = s_.locks.find(resource);
    if (it != s_.locks.end() && it->second == client) {
      it->second = 0;
    }
  } else if (kind == ResourceKind::kSemaphore) {
    auto it = s_.semaphores.find(resource);
    if (it != s_.semaphores.end()) {
      auto holder = it->second.holders.find(client);
      if (holder != it->second.holders.end()) {
        it->second.holders.erase(holder);
      }
    }
  }
  // Counters are not rolled back: a skipped value is harmless, a reused one
  // is not.
}

void Server::TrackHolding(int client, net::NodeId client_node, ResourceKind kind,
                          const std::string& resource, bool add) {
  ClientLease& lease = s_.leases[client];
  lease.node = client_node;
  lease.last_heard = Now();
  auto& holdings = lease.holdings;
  const auto entry = std::make_pair(kind, resource);
  if (add) {
    holdings.push_back(entry);
  } else {
    auto it = std::find(holdings.begin(), holdings.end(), entry);
    if (it != holdings.end()) {
      holdings.erase(it);
    }
  }
}

void Server::ReclaimClient(int client) {
  auto it = s_.leases.find(client);
  if (it == s_.leases.end()) {
    return;
  }
  TraceEvent("reclaim", "client=" + std::to_string(client));
  for (const auto& [kind, resource] : it->second.holdings) {
    RollbackLocal(kind, resource, client);
    for (net::NodeId peer : s_.view) {
      if (peer == id()) {
        continue;
      }
      auto abort = std::make_shared<PeerAbort>();
      abort->kind = kind;
      abort->resource = resource;
      abort->client = client;
      SendEnvelope(peer, abort);
    }
  }
  it->second.holdings.clear();
}

void Server::OnMessage(const net::Envelope& envelope) {
  const bool is_peer =
      std::find(replicas_.begin(), replicas_.end(), envelope.src) != replicas_.end();
  if (is_peer) {
    s_.detector.RecordHeartbeat(envelope.src, Now());
    // A peer heard from again rejoins the view — with no reconciliation of
    // the diverged tables, so double-granted locks persist past the heal.
    if (s_.view.insert(envelope.src).second) {
      TraceEvent("view-rejoin", "peer=" + std::to_string(envelope.src));
    }
  }
  const net::Message& msg = *envelope.msg;
  if (auto* request = net::As<ClientLockRequest>(msg)) {
    HandleClientRequest(envelope, *request);
  } else if (auto* apply = net::As<PeerApply>(msg)) {
    HandlePeerApply(envelope, *apply);
  } else if (auto* ack = net::As<PeerAck>(msg)) {
    HandlePeerAck(envelope, *ack);
  } else if (auto* abort = net::As<PeerAbort>(msg)) {
    HandlePeerAbort(*abort);
  } else if (auto* keepalive = net::As<KeepAlive>(msg)) {
    HandleKeepAlive(envelope, *keepalive);
  }
}

void Server::HandleKeepAlive(const net::Envelope& envelope, const KeepAlive& msg) {
  auto it = s_.leases.find(msg.client);
  if (it != s_.leases.end()) {
    it->second.node = envelope.src;
    it->second.last_heard = Now();
  }
}

void Server::HandleClientRequest(const net::Envelope& envelope,
                                 const ClientLockRequest& request) {
  // The client number rides in the low digits of its node id (see Cluster);
  // the coordinator needs it to attribute holdings.
  const int client = static_cast<int>(envelope.src) - 100;

  int64_t counter_value = 0;
  const bool granted = ApplyLocal(request.kind, request.op, request.resource, client,
                                  request.permits, &counter_value);
  const bool is_release = request.op == ClientOp::kRelease;
  if (!granted) {
    auto reply = std::make_shared<ClientLockReply>();
    reply->request_id = request.request_id;
    reply->ok = false;
    SendEnvelope(envelope.src, reply);
    return;
  }
  if (is_release) {
    // Releases are propagated without waiting: they only ever free state.
    TrackHolding(client, envelope.src, request.kind, request.resource, /*add=*/false);
    for (net::NodeId peer : s_.view) {
      if (peer == id()) {
        continue;
      }
      auto apply = std::make_shared<PeerApply>();
      apply->kind = request.kind;
      apply->op = ClientOp::kRelease;
      apply->resource = request.resource;
      apply->client = client;
      SendEnvelope(peer, apply);
    }
    auto reply = std::make_shared<ClientLockReply>();
    reply->request_id = request.request_id;
    reply->ok = true;
    SendEnvelope(envelope.src, reply);
    return;
  }

  const uint64_t txn_id = s_.next_txn_id++;
  PendingTxn txn;
  txn.client_node = envelope.src;
  txn.client = client;
  txn.request_id = request.request_id;
  txn.kind = request.kind;
  txn.op = request.op;
  txn.resource = request.resource;
  txn.permits = request.permits;
  txn.counter_value = counter_value;
  txn.acks.insert(id());
  txn.needed = QuorumNeeded();
  if (txn.acks.size() >= txn.needed) {
    s_.pending.emplace(txn_id, std::move(txn));
    FinishTxn(txn_id, /*ok=*/true);
    return;
  }
  txn.timer = After(options_.acquire_timeout, [this, txn_id]() { AbortTxn(txn_id); });
  for (net::NodeId peer : s_.view) {
    if (peer == id()) {
      continue;
    }
    auto apply = std::make_shared<PeerApply>();
    apply->txn_id = txn_id;
    apply->kind = request.kind;
    apply->op = request.op;
    apply->resource = request.resource;
    apply->client = client;
    apply->permits = request.permits;
    apply->counter_value = counter_value;
    SendEnvelope(peer, apply);
  }
  s_.pending.emplace(txn_id, std::move(txn));
}

void Server::HandlePeerApply(const net::Envelope& envelope, const PeerApply& msg) {
  int64_t counter_value = 0;
  bool granted = false;
  if (msg.kind == ResourceKind::kCounter && msg.op == ClientOp::kIncrement) {
    // Adopt the coordinator's assignment; refuse if we already saw it.
    int64_t& value = s_.counters[msg.resource];
    granted = value < msg.counter_value;
    value = std::max(value, msg.counter_value);
    counter_value = value;
  } else {
    granted =
        ApplyLocal(msg.kind, msg.op, msg.resource, msg.client, msg.permits, &counter_value);
  }
  if (msg.op == ClientOp::kRelease) {
    return;  // fire-and-forget
  }
  auto ack = std::make_shared<PeerAck>();
  ack->txn_id = msg.txn_id;
  ack->granted = granted;
  ack->counter_value = counter_value;
  SendEnvelope(envelope.src, ack);
}

void Server::HandlePeerAck(const net::Envelope& envelope, const PeerAck& msg) {
  auto it = s_.pending.find(msg.txn_id);
  if (it == s_.pending.end()) {
    return;
  }
  if (!msg.granted) {
    AbortTxn(msg.txn_id);
    return;
  }
  it->second.acks.insert(envelope.src);
  it->second.applied_on.insert(envelope.src);
  if (it->second.acks.size() >= it->second.needed) {
    FinishTxn(msg.txn_id, /*ok=*/true);
  }
}

void Server::HandlePeerAbort(const PeerAbort& msg) {
  RollbackLocal(msg.kind, msg.resource, msg.client);
}

void Server::AbortTxn(uint64_t txn_id) {
  auto it = s_.pending.find(txn_id);
  if (it == s_.pending.end()) {
    return;
  }
  PendingTxn txn = std::move(it->second);
  s_.pending.erase(it);
  simulator()->Cancel(txn.timer);
  RollbackLocal(txn.kind, txn.resource, txn.client);
  for (net::NodeId peer : txn.applied_on) {
    auto abort = std::make_shared<PeerAbort>();
    abort->kind = txn.kind;
    abort->resource = txn.resource;
    abort->client = txn.client;
    SendEnvelope(peer, abort);
  }
  auto reply = std::make_shared<ClientLockReply>();
  reply->request_id = txn.request_id;
  reply->ok = false;
  SendEnvelope(txn.client_node, reply);
}

void Server::FinishTxn(uint64_t txn_id, bool ok) {
  auto it = s_.pending.find(txn_id);
  if (it == s_.pending.end()) {
    return;
  }
  PendingTxn txn = std::move(it->second);
  s_.pending.erase(it);
  simulator()->Cancel(txn.timer);
  if (ok && txn.op == ClientOp::kAcquire) {
    TrackHolding(txn.client, txn.client_node, txn.kind, txn.resource, /*add=*/true);
  }
  auto reply = std::make_shared<ClientLockReply>();
  reply->request_id = txn.request_id;
  reply->ok = ok;
  reply->counter_value = txn.counter_value;
  SendEnvelope(txn.client_node, reply);
}

}  // namespace locksvc
