// Wire messages of the coordination-service registry (ZooKeeper analog).

#ifndef SYSTEMS_ZK_MESSAGES_H_
#define SYSTEMS_ZK_MESSAGES_H_

#include <cstdint>
#include <string>

#include "net/message.h"

namespace zksvc {

// Session keep-alive; the registry expires sessions that stop pinging and
// deletes their ephemeral entries.
struct ZkPing final : public net::Message {
  std::string_view TypeName() const override { return "zk.Ping"; }
};

struct ZkPong final : public net::Message {
  std::string_view TypeName() const override { return "zk.Pong"; }
};

// Creates an entry owned by the sender's session. Fails if it exists.
struct ZkCreate final : public net::Message {
  std::string_view TypeName() const override { return "zk.Create"; }
  uint64_t request_id = 0;
  std::string path;
  std::string data;
  bool ephemeral = true;
};

struct ZkCreateReply final : public net::Message {
  std::string_view TypeName() const override { return "zk.CreateReply"; }
  uint64_t request_id = 0;
  bool ok = false;
};

struct ZkGet final : public net::Message {
  std::string_view TypeName() const override { return "zk.Get"; }
  uint64_t request_id = 0;
  std::string path;
};

struct ZkGetReply final : public net::Message {
  std::string_view TypeName() const override { return "zk.GetReply"; }
  uint64_t request_id = 0;
  bool exists = false;
  std::string data;
};

struct ZkDelete final : public net::Message {
  std::string_view TypeName() const override { return "zk.Delete"; }
  uint64_t request_id = 0;
  std::string path;
};

// Registers interest in a path; one-shot, re-armed by the watcher.
struct ZkWatch final : public net::Message {
  std::string_view TypeName() const override { return "zk.Watch"; }
  std::string path;
};

// Fired when a watched path is created, changed, or deleted.
struct ZkEvent final : public net::Message {
  std::string_view TypeName() const override { return "zk.Event"; }
  std::string path;
  bool deleted = false;
};

}  // namespace zksvc

#endif  // SYSTEMS_ZK_MESSAGES_H_
