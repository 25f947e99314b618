#include "systems/zk/registry.h"

#include <vector>

namespace zksvc {

Registry::Registry(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                   Options options)
    : cluster::Process(simulator, network, id, "zk"), options_(options) {}

void Registry::OnStart() {
  Every(options_.session_check_interval, [this]() { Tick(); });
}

std::string Registry::Data(const std::string& path) const {
  auto it = s_.entries.find(path);
  return it == s_.entries.end() ? "" : it->second.data;
}

void Registry::Tick() {
  std::vector<net::NodeId> expired;
  for (const auto& [session, last_heard] : s_.sessions) {
    if (Now() - last_heard > options_.session_timeout) {
      expired.push_back(session);
    }
  }
  for (net::NodeId session : expired) {
    ExpireSession(session);
  }
}

void Registry::Touch(net::NodeId session) { s_.sessions[session] = Now(); }

void Registry::ExpireSession(net::NodeId session) {
  TraceEvent("session-expired", "session=" + std::to_string(session));
  s_.sessions.erase(session);
  std::vector<std::string> doomed;
  for (const auto& [path, entry] : s_.entries) {
    if (entry.ephemeral && entry.owner == session) {
      doomed.push_back(path);
    }
  }
  for (const std::string& path : doomed) {
    s_.entries.erase(path);
    FireWatches(path, /*deleted=*/true);
  }
}

void Registry::FireWatches(const std::string& path, bool deleted) {
  auto it = s_.watches.find(path);
  if (it == s_.watches.end()) {
    return;
  }
  const std::set<net::NodeId> watchers = std::move(it->second);
  s_.watches.erase(it);  // one-shot, as in ZooKeeper
  for (net::NodeId watcher : watchers) {
    auto event = std::make_shared<ZkEvent>();
    event->path = path;
    event->deleted = deleted;
    SendEnvelope(watcher, event);
  }
}

void Registry::OnMessage(const net::Envelope& envelope) {
  Touch(envelope.src);
  const net::Message& msg = *envelope.msg;
  if (dynamic_cast<const ZkPing*>(&msg) != nullptr) {
    Send<ZkPong>(envelope.src);
    return;
  }
  if (auto* create = dynamic_cast<const ZkCreate*>(&msg)) {
    const bool ok = s_.entries.count(create->path) == 0;
    if (ok) {
      s_.entries[create->path] = Entry{create->data, create->ephemeral, envelope.src};
      FireWatches(create->path, /*deleted=*/false);
      TraceEvent("create", create->path + "=" + create->data);
    }
    auto reply = std::make_shared<ZkCreateReply>();
    reply->request_id = create->request_id;
    reply->ok = ok;
    SendEnvelope(envelope.src, reply);
    return;
  }
  if (auto* get = dynamic_cast<const ZkGet*>(&msg)) {
    auto reply = std::make_shared<ZkGetReply>();
    reply->request_id = get->request_id;
    auto it = s_.entries.find(get->path);
    reply->exists = it != s_.entries.end();
    reply->data = reply->exists ? it->second.data : "";
    SendEnvelope(envelope.src, reply);
    return;
  }
  if (auto* del = dynamic_cast<const ZkDelete*>(&msg)) {
    if (s_.entries.erase(del->path) != 0) {
      FireWatches(del->path, /*deleted=*/true);
    }
    return;
  }
  if (auto* watch = dynamic_cast<const ZkWatch*>(&msg)) {
    s_.watches[watch->path].insert(envelope.src);
    return;
  }
}

}  // namespace zksvc
