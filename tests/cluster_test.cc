// Unit tests for the process runtime and the failure detector.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/process.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace cluster {
namespace {

struct Note final : public net::Message {
  explicit Note(std::string text_in = "") : text(std::move(text_in)) {}
  std::string_view TypeName() const override { return "Note"; }
  std::string text;
};

// A process that echoes notes back and counts ticks.
class Echoer : public Process {
 public:
  Echoer(sim::Simulator* simulator, net::Network* network, net::NodeId id)
      : Process(simulator, network, id, "echo" + std::to_string(id)) {}

  int ticks = 0;
  std::vector<std::string> seen;
  int starts = 0;
  int restarts = 0;

  void SendNote(net::NodeId dst, const std::string& text) { Send<Note>(dst, text); }
  void ArmAfter(sim::Duration d) {
    After(d, [this]() { ++ticks; });
  }
  void ArmEvery(sim::Duration d) {
    Every(d, [this]() { ++ticks; });
  }

 protected:
  void OnStart() override { ++starts; }
  void OnRestart() override { ++restarts; }
  void OnMessage(const net::Envelope& envelope) override {
    auto* note = dynamic_cast<const Note*>(envelope.msg.get());
    if (note != nullptr) {
      seen.push_back(note->text);
    }
  }
};

class ProcessTest : public ::testing::Test {
 protected:
  ProcessTest() : simulator_(3), network_(&simulator_, &backend_) {
    a_ = std::make_unique<Echoer>(&simulator_, &network_, 1);
    b_ = std::make_unique<Echoer>(&simulator_, &network_, 2);
    a_->Boot();
    b_->Boot();
  }
  sim::Simulator simulator_;
  net::SwitchPartitioner backend_;
  net::Network network_;
  std::unique_ptr<Echoer> a_;
  std::unique_ptr<Echoer> b_;
};

TEST_F(ProcessTest, DeliversMessagesBetweenProcesses) {
  a_->SendNote(2, "hello");
  simulator_.RunUntilIdle();
  ASSERT_EQ(b_->seen.size(), 1u);
  EXPECT_EQ(b_->seen[0], "hello");
}

TEST_F(ProcessTest, CrashedProcessReceivesNothing) {
  b_->Crash();
  a_->SendNote(2, "lost");
  simulator_.RunUntilIdle();
  EXPECT_TRUE(b_->seen.empty());
}

TEST_F(ProcessTest, RestartResumesDelivery) {
  b_->Crash();
  b_->Restart();
  a_->SendNote(2, "back");
  simulator_.RunUntilIdle();
  ASSERT_EQ(b_->seen.size(), 1u);
  EXPECT_EQ(b_->restarts, 1);
  EXPECT_EQ(b_->starts, 2);
}

TEST_F(ProcessTest, CrashCancelsPendingTimers) {
  a_->ArmAfter(sim::Milliseconds(5));
  a_->Crash();
  simulator_.RunUntilIdle();
  EXPECT_EQ(a_->ticks, 0);
}

TEST_F(ProcessTest, TimerFromOldIncarnationDoesNotFireAfterRestart) {
  a_->ArmAfter(sim::Milliseconds(5));
  a_->Crash();
  a_->Restart();
  simulator_.RunUntilIdle();
  EXPECT_EQ(a_->ticks, 0);  // the timer belonged to the old incarnation
}

TEST_F(ProcessTest, EveryRepeatsUntilCrash) {
  a_->ArmEvery(sim::Milliseconds(10));
  simulator_.RunUntil(sim::Milliseconds(55));
  EXPECT_EQ(a_->ticks, 5);
  a_->Crash();
  simulator_.RunUntil(sim::Milliseconds(200));
  EXPECT_EQ(a_->ticks, 5);
}

TEST_F(ProcessTest, IncarnationIncrementsOnCrashAndBoot) {
  const uint64_t first = a_->incarnation();
  a_->Crash();
  a_->Restart();
  EXPECT_GT(a_->incarnation(), first);
}

class FailureDetectorTest : public ::testing::Test {
 protected:
  FailureDetector::Options MakeOptions() {
    FailureDetector::Options o;
    o.interval = sim::Milliseconds(100);
    o.miss_threshold = 3;
    return o;
  }
};

TEST_F(FailureDetectorTest, PeersStartAlive) {
  FailureDetector fd(1, {2, 3}, MakeOptions());
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(100)));
  EXPECT_TRUE(fd.IsAlive(3, sim::kTimeZero));
}

TEST_F(FailureDetectorTest, SelfIsExcludedFromPeers) {
  FailureDetector fd(1, {1, 2}, MakeOptions());
  EXPECT_EQ(fd.peers(), (std::vector<net::NodeId>{2}));
}

TEST_F(FailureDetectorTest, PeerDiesAfterMissedHeartbeats) {
  FailureDetector fd(1, {2}, MakeOptions());
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(300)));
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(301)));
}

TEST_F(FailureDetectorTest, HeartbeatRefreshesLiveness) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(250));
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(500)));
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(600)));
}

TEST_F(FailureDetectorTest, UnknownPeerIsDead) {
  FailureDetector fd(1, {2}, MakeOptions());
  EXPECT_FALSE(fd.IsAlive(42, sim::kTimeZero));
}

TEST_F(FailureDetectorTest, CustomWindowQueries) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(100));
  // Dead by the default 300ms window, alive by a 600ms step-down window.
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(500)));
  EXPECT_TRUE(fd.IsAliveWithin(2, sim::Milliseconds(500), sim::Milliseconds(600)));
}

TEST_F(FailureDetectorTest, AliveAndDeadPartitionThePeerSet) {
  FailureDetector fd(1, {2, 3, 4}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(400));
  const sim::Time now = sim::Milliseconds(500);
  EXPECT_EQ(fd.AlivePeers(now), (std::vector<net::NodeId>{2}));
  EXPECT_EQ(fd.DeadPeers(now), (std::vector<net::NodeId>{3, 4}));
}

TEST_F(FailureDetectorTest, ResetRevivesEveryone) {
  FailureDetector fd(1, {2, 3}, MakeOptions());
  EXPECT_FALSE(fd.IsAlive(2, sim::Seconds(10)));
  fd.Reset(sim::Seconds(10));
  EXPECT_TRUE(fd.IsAlive(2, sim::Seconds(10)));
}

TEST_F(FailureDetectorTest, LastHeardTracksLatest) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(7));
  fd.RecordHeartbeat(2, sim::Milliseconds(11));
  EXPECT_EQ(fd.LastHeard(2), sim::Milliseconds(11));
  EXPECT_EQ(fd.LastHeard(99), sim::kTimeZero);
}

// Partial-partition disagreement: with nodes {1,2,3} and a partial partition
// between 1 and 2, node 2's detector sees node 1 dead while node 3's sees it
// alive — the paper's defining confusion for partial partitions.
TEST(FailureDetectorScenario, PartialPartitionCausesDisagreement) {
  FailureDetector::Options options;
  options.interval = sim::Milliseconds(100);
  options.miss_threshold = 3;
  FailureDetector on_node2(2, {1, 3}, options);
  FailureDetector on_node3(3, {1, 2}, options);
  // Node 1 heartbeats reach node 3 but not node 2 (partial partition 1|2).
  for (int t = 1; t <= 10; ++t) {
    on_node3.RecordHeartbeat(1, sim::Milliseconds(100 * t));
  }
  const sim::Time now = sim::Milliseconds(1000);
  EXPECT_FALSE(on_node2.IsAlive(1, now));  // node 2: "node 1 crashed"
  EXPECT_TRUE(on_node3.IsAlive(1, now));   // node 3: "node 1 is fine"
}

}  // namespace
}  // namespace cluster
