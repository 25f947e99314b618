// Message types carried by the simulated network.
//
// Each system defines its own message structs deriving directly from
// net::Message and marked `final`; the network carries them opaquely and
// handlers dispatch on receipt with net::As<M>, an exact-type check.

#ifndef NET_MESSAGE_H_
#define NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "sim/time.h"

namespace net {

// Identifies a process (server or client) attached to the network.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

// An ordered set of nodes, as used by the NEAT partition API.
using Group = std::vector<NodeId>;

// The nodes 1..count, the way the model clusters number their servers.
inline Group FirstNodes(int count) {
  Group nodes;
  for (NodeId node = 1; node <= count; ++node) {
    nodes.push_back(node);
  }
  return nodes;
}

class Message {
 public:
  virtual ~Message() = default;

  // Short human-readable type tag for traces, e.g. "AppendEntries". A
  // view of a string literal: `return "pbkv.ClientRequest";`.
  virtual std::string_view TypeName() const = 0;
};

// The message as an M, or null when it is of another type. M must be final,
// so an exact typeid match gives the answer dynamic_cast would, without its
// walk over the class hierarchy.
template <typename M>
const M* As(const Message& msg) {
  static_assert(std::is_final_v<M>, "net::As dispatches on message types marked final");
  static_assert(std::is_base_of_v<Message, M>);
  return typeid(msg) == typeid(M) ? static_cast<const M*>(&msg) : nullptr;
}

// What the network hands to a receiving process.
struct Envelope {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  sim::Time sent_at = sim::kTimeZero;
  std::shared_ptr<const Message> msg;
  // Trace id of the "send" record for this message (0 when causal tracing
  // is off). The network uses it to stamp the send->deliver edge of the
  // happens-before graph; it is a stable log position, never an address.
  uint64_t send_record = 0;
};

}  // namespace net

#endif  // NET_MESSAGE_H_
