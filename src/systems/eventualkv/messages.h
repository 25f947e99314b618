// Wire messages of the eventually consistent store.

#ifndef SYSTEMS_EVENTUALKV_MESSAGES_H_
#define SYSTEMS_EVENTUALKV_MESSAGES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.h"
#include "sim/time.h"

namespace eventualkv {

// One versioned record. Carries both a wall-clock timestamp (for LWW) and a
// version vector (for causality-aware conflict handling, Riak-style).
struct Record {
  std::string value;
  sim::Time timestamp = sim::kTimeZero;
  net::NodeId origin = net::kInvalidNode;
  bool tombstone = false;
  // Version vector: per-replica write counters. Empty vectors (from systems
  // running pure LWW) compare as concurrent with everything non-empty.
  std::map<net::NodeId, uint64_t> version;

  bool Newer(const Record& other) const {
    if (timestamp != other.timestamp) {
      return timestamp > other.timestamp;
    }
    return origin > other.origin;
  }

  // True when this record's version vector dominates (is causally after)
  // the other's: >= on every entry and > on at least one.
  bool Dominates(const Record& other) const {
    bool strictly_greater = false;
    for (const auto& [node, counter] : other.version) {
      auto it = version.find(node);
      if (it == version.end() || it->second < counter) {
        return false;
      }
    }
    for (const auto& [node, counter] : version) {
      auto it = other.version.find(node);
      if (it == other.version.end() || counter > it->second) {
        strictly_greater = true;
      }
    }
    return strictly_greater;
  }

  bool ConcurrentWith(const Record& other) const {
    return !Dominates(other) && !other.Dominates(*this);
  }
};

struct ClientKvRequest final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ClientRequest"; }
  uint64_t request_id = 0;
  enum class Op { kPut, kGet, kDelete } op = Op::kPut;
  std::string key;
  std::string value;
};

struct ClientKvReply final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ClientReply"; }
  uint64_t request_id = 0;
  bool ok = false;
  std::string value;
};

// Coordinator -> replica: store this record (write or tombstone).
struct ReplicaWrite final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ReplicaWrite"; }
  uint64_t txn_id = 0;
  std::string key;
  Record record;
};

struct ReplicaWriteAck final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ReplicaWriteAck"; }
  uint64_t txn_id = 0;
};

// Coordinator -> replica: what is your record for `key`?
struct ReplicaRead final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ReplicaRead"; }
  uint64_t txn_id = 0;
  std::string key;
};

struct ReplicaReadReply final : public net::Message {
  std::string_view TypeName() const override { return "ekv.ReplicaReadReply"; }
  uint64_t txn_id = 0;
  // All sibling records this replica holds for the key (empty if none).
  std::vector<Record> records;
};

// Anti-entropy: full-store digest exchange (small stores; the real systems
// use Merkle trees, which only changes the transfer cost).
struct SyncOffer final : public net::Message {
  std::string_view TypeName() const override { return "ekv.SyncOffer"; }
  std::map<std::string, std::vector<Record>> records;
};

}  // namespace eventualkv

#endif  // SYSTEMS_EVENTUALKV_MESSAGES_H_
