// Fixture: the dispatch sites that mark PingMsg (dynamic_cast) and
// FinalPingMsg (net::As) handled tree-wide.
#include "systems/echo/messages.h"

namespace echo {

void OnMessage(const net::Envelope& envelope) {
  if (const auto* ping = dynamic_cast<const PingMsg*>(envelope.msg)) {
    (void)ping;
  }
  if (const auto* final_ping = net::As<FinalPingMsg>(*envelope.msg)) {
    (void)final_ping;
  }
}

}  // namespace echo
