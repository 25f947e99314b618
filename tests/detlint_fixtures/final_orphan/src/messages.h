// Fixture: a one-file tree whose only finding is a `final` message type
// with no dispatch site — the gate must fail on it (CI negative check).
#include <string_view>

namespace solo {

struct FinalOrphanMsg final : public net::Message {
  std::string_view TypeName() const override { return "solo.FinalOrphan"; }
};

}  // namespace solo
