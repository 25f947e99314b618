#include "net/partition.h"

#include <algorithm>

#include "net/connectivity.h"
#include "sim/value_snapshot.h"

namespace net {
namespace {

// Removes duplicate entries while preserving first-occurrence order.
Group Dedup(const Group& group) {
  Group out;
  out.reserve(group.size());
  for (NodeId n : group) {
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(n);
    }
  }
  return out;
}

}  // namespace

// --- PartitionBackend ---

PartitionBackend::~PartitionBackend() = default;

void PartitionBackend::Attach(ConnectivityCache* cache) { caches_.push_back(cache); }

void PartitionBackend::Detach(ConnectivityCache* cache) {
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache), caches_.end());
}

RuleId PartitionBackend::Block(const Group& srcs, const Group& dsts) {
  const Group src_group = Dedup(srcs);
  const Group dst_group = Dedup(dsts);
  const RuleId id = DoBlock(src_group, dst_group);
  ++epoch_;
  for (ConnectivityCache* cache : caches_) {
    cache->OnBlock(src_group, dst_group);
  }
  return id;
}

bool PartitionBackend::Unblock(RuleId id) {
  std::vector<Link> coverage;
  if (!DoUnblock(id, &coverage)) {
    return false;
  }
  ++epoch_;
  for (ConnectivityCache* cache : caches_) {
    cache->OnUnblock(coverage);
  }
  return true;
}

void PartitionBackend::BumpEpochAndResync() {
  ++epoch_;
  for (ConnectivityCache* cache : caches_) {
    cache->Resync();
  }
}

// --- SwitchPartitioner ---

std::unique_ptr<PartitionBackend::RulesSnapshot> SwitchPartitioner::CaptureRules() const {
  return sim::MakeValueSnapshot<RulesSnapshot>(s_);
}

void SwitchPartitioner::RestoreRules(const RulesSnapshot& snapshot) {
  s_ = sim::SnapshotValue<Rules>(snapshot);
  BumpEpochAndResync();
}

bool SwitchPartitioner::AllowsLink(NodeId src, NodeId dst) const {
  // Drop rules have priority over the default learning-switch forwarding.
  for (const auto& [id, rule] : s_.rules) {
    if (rule.srcs.count(src) != 0 && rule.dsts.count(dst) != 0) {
      return false;
    }
  }
  return true;
}

RuleId SwitchPartitioner::DoBlock(const Group& srcs, const Group& dsts) {
  FlowRule rule;
  rule.srcs.insert(srcs.begin(), srcs.end());
  rule.dsts.insert(dsts.begin(), dsts.end());
  const RuleId id = s_.next_id++;
  s_.rules.emplace(id, std::move(rule));
  return id;
}

bool SwitchPartitioner::DoUnblock(RuleId id, std::vector<Link>* coverage) {
  auto it = s_.rules.find(id);
  if (it == s_.rules.end()) {
    return false;
  }
  for (NodeId s : it->second.srcs) {
    for (NodeId d : it->second.dsts) {
      if (s != d) {
        coverage->emplace_back(s, d);
      }
    }
  }
  s_.rules.erase(it);
  return true;
}

// --- FirewallPartitioner ---

std::unique_ptr<PartitionBackend::RulesSnapshot> FirewallPartitioner::CaptureRules() const {
  return sim::MakeValueSnapshot<RulesSnapshot>(s_);
}

void FirewallPartitioner::RestoreRules(const RulesSnapshot& snapshot) {
  s_ = sim::SnapshotValue<Rules>(snapshot);
  BumpEpochAndResync();
}

bool FirewallPartitioner::AllowsLink(NodeId src, NodeId dst) const {
  auto src_it = s_.hosts.find(src);
  if (src_it != s_.hosts.end()) {
    auto egress = src_it->second.egress_drop.find(dst);
    if (egress != src_it->second.egress_drop.end() && !egress->second.empty()) {
      return false;
    }
  }
  auto dst_it = s_.hosts.find(dst);
  if (dst_it != s_.hosts.end()) {
    auto ingress = dst_it->second.ingress_drop.find(src);
    if (ingress != dst_it->second.ingress_drop.end() && !ingress->second.empty()) {
      return false;
    }
  }
  return true;
}

RuleId FirewallPartitioner::DoBlock(const Group& srcs, const Group& dsts) {
  const RuleId id = s_.next_id++;
  std::vector<ChainRef>& refs = s_.rule_index[id];
  for (NodeId s : srcs) {
    for (NodeId d : dsts) {
      if (s == d) {
        continue;  // self traffic never traverses a chain
      }
      s_.hosts[s].egress_drop[d].insert(id);
      s_.hosts[d].ingress_drop[s].insert(id);
      refs.push_back(ChainRef{s, d, /*egress=*/true});
      refs.push_back(ChainRef{d, s, /*egress=*/false});
    }
  }
  return id;
}

bool FirewallPartitioner::DoUnblock(RuleId id, std::vector<Link>* coverage) {
  auto it = s_.rule_index.find(id);
  if (it == s_.rule_index.end()) {
    return false;
  }
  for (const ChainRef& ref : it->second) {
    auto host_it = s_.hosts.find(ref.host);
    if (host_it == s_.hosts.end()) {
      continue;
    }
    auto& chains =
        ref.egress ? host_it->second.egress_drop : host_it->second.ingress_drop;
    auto chain_it = chains.find(ref.peer);
    if (chain_it != chains.end()) {
      chain_it->second.erase(id);
      if (chain_it->second.empty()) {
        chains.erase(chain_it);
      }
    }
    if (ref.egress) {
      coverage->emplace_back(ref.host, ref.peer);
    }
  }
  s_.rule_index.erase(it);
  return true;
}

// --- Partitioner ---

Partition Partitioner::MakeBidirectional(const Group& a, const Group& b,
                                         const std::string& kind) {
  Partition p;
  p.id = next_partition_id_++;
  p.kind = kind;
  p.rules.push_back(backend_->Block(a, b));
  p.rules.push_back(backend_->Block(b, a));
  return p;
}

Partition Partitioner::Complete(const Group& group_a, const Group& group_b) {
  return MakeBidirectional(group_a, group_b, "complete");
}

Partition Partitioner::Partial(const Group& group_a, const Group& group_b) {
  return MakeBidirectional(group_a, group_b, "partial");
}

Partition Partitioner::Simplex(const Group& group_src, const Group& group_dst) {
  Partition p;
  p.id = next_partition_id_++;
  p.kind = "simplex";
  // Traffic flows src -> dst; the reverse direction is dropped.
  p.rules.push_back(backend_->Block(group_dst, group_src));
  return p;
}

void Partitioner::Heal(Partition& partition) {
  if (partition.healed) {
    return;
  }
  for (RuleId id : partition.rules) {
    backend_->Unblock(id);
  }
  partition.rules.clear();
  partition.healed = true;
}

Group Partitioner::Rest(const Group& universe, const Group& group) {
  Group out;
  for (NodeId n : universe) {
    if (std::find(group.begin(), group.end(), n) == group.end()) {
      out.push_back(n);
    }
  }
  return out;
}

}  // namespace net
