// Fixture: unhandled-message. PingMsg has a dynamic_cast dispatch site in
// server.cc; AckMsg is consumed generically and carries a suppression;
// OrphanMsg is the silent unhandled-protocol-event omission and is flagged.
// The final pair: FinalPingMsg is dispatched only through net::As (handled),
// FinalOrphanMsg nowhere (flagged) — `final` must not hide a message type.
#include <string>

namespace echo {

struct PingMsg : public net::Message {
  std::string TypeName() const override { return "Ping"; }
};

// detlint: allow(unhandled-message): acks are folded into the client's
// generic completion path, not dispatched per-type.
struct AckMsg : public net::Message {
  std::string TypeName() const override { return "Ack"; }
};

struct OrphanMsg : public net::Message {
  std::string TypeName() const override { return "Orphan"; }
};

struct FinalPingMsg final : public net::Message {
  std::string_view TypeName() const override { return "FinalPing"; }
};

struct FinalOrphanMsg final : public net::Message {
  std::string_view TypeName() const override { return "FinalOrphan"; }
};

}  // namespace echo
