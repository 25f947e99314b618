// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/partition.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace {

// Counts the closures alive, so a test can check that every copy the queue,
// the retention log or a running event makes is destroyed exactly once.
struct LiveToken {
  explicit LiveToken(int* live_in) : live(live_in) { ++*live; }
  LiveToken(const LiveToken& other) noexcept : live(other.live) { ++*live; }
  LiveToken& operator=(const LiveToken&) = delete;
  ~LiveToken() { --*live; }
  int* live;
};

}  // namespace

namespace sim {
namespace {

TEST(TimeTest, FormatsUnits) {
  EXPECT_EQ(FormatTime(15), "15us");
  EXPECT_EQ(FormatTime(Milliseconds(2) + 500), "2.500ms");
  EXPECT_EQ(FormatTime(Seconds(3)), "3.000s");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Milliseconds(3), [&order]() { order.push_back(3); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(1); });
  s.Schedule(Milliseconds(2), [&order]() { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakBySchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(1); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(2); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(3); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator s;
  Time seen = -1;
  s.Schedule(Milliseconds(5), [&]() { seen = s.Now(); });
  s.RunUntilIdle();
  EXPECT_EQ(seen, Milliseconds(5));
  EXPECT_EQ(s.Now(), Milliseconds(5));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int ran = 0;
  s.Schedule(Milliseconds(1), [&]() { ++ran; });
  s.Schedule(Milliseconds(10), [&]() { ++ran; });
  s.RunUntil(Milliseconds(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.Now(), Milliseconds(5));
  s.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.RunUntil(Seconds(2));
  EXPECT_EQ(s.Now(), Seconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  EventId id = s.Schedule(Milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // second cancel fails
  s.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(s.Schedule(Milliseconds(i + 1), []() {}));
  }
  EXPECT_EQ(s.pending_events(), 5u);
  EXPECT_TRUE(s.Cancel(ids[1]));
  EXPECT_TRUE(s.Cancel(ids[3]));
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.RunUntilIdle(), 3u);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, CancelledEventsDoNotAdvanceTheClock) {
  Simulator s;
  EventId id = s.Schedule(Seconds(10), []() {});
  s.Cancel(id);
  EXPECT_EQ(s.RunUntilIdle(), 0u);
  EXPECT_EQ(s.Now(), kTimeZero);
}

TEST(SimulatorTest, EventsCanCancelLaterEventsAtTheSameTime) {
  Simulator s;
  bool victim_ran = false;
  EventId victim = kInvalidEventId;
  s.Schedule(Milliseconds(1), [&]() { EXPECT_TRUE(s.Cancel(victim)); });
  victim = s.Schedule(Milliseconds(1), [&]() { victim_ran = true; });
  s.RunUntilIdle();
  EXPECT_FALSE(victim_ran);
}

TEST(SimulatorTest, CancelAfterRunFails) {
  Simulator s;
  EventId id = s.Schedule(0, []() {});
  s.RunUntilIdle();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      s.Schedule(Milliseconds(1), recurse);
    }
  };
  s.Schedule(Milliseconds(1), recurse);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.Now(), Milliseconds(5));
}

TEST(SimulatorTest, RunUntilPredicateStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(Milliseconds(i + 1), [&]() { ++count; });
  }
  const bool fired = s.RunUntilPredicate([&]() { return count == 3; }, Seconds(1));
  EXPECT_TRUE(fired);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilPredicateRespectsDeadline) {
  Simulator s;
  const bool fired = s.RunUntilPredicate([]() { return false; }, Milliseconds(10));
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.Now(), Milliseconds(10));
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) {
    s.Schedule(i, []() {});
  }
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 7u);
}

// Regression: NextBelow(0) used to compute `(0 - 0) % 0` — an integer
// division by zero that crashes on every mainstream target. The empty
// range now yields 0 without consuming randomness.
TEST(RngTest, NextBelowZeroBoundIsDefined) {
  Rng rng(13);
  Rng twin(13);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  // No state was consumed: the twin that never saw the empty range still
  // agrees on the next draw.
  EXPECT_EQ(rng.Next(), twin.Next());
}

// Regression: NextInRange computed `hi - lo + 1` in int64_t, which is
// signed-overflow UB whenever the endpoints straddle more than half the
// domain, and for the full domain the span wrapped to zero and fed
// NextBelow(0)'s division by zero.
TEST(RngTest, NextInRangeFullInt64DomainIsDefined) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(17);
  Rng twin(17);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 256; ++i) {
    const int64_t v = rng.NextInRange(kMin, kMax);
    EXPECT_EQ(v, twin.NextInRange(kMin, kMax));  // still deterministic
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // Straddling spans short of the full domain go through the unsigned
  // NextBelow path; the degenerate one-value range is exact.
  for (int i = 0; i < 256; ++i) {
    const int64_t v = rng.NextInRange(kMin + 1, kMax);
    EXPECT_GE(v, kMin + 1);
  }
  EXPECT_EQ(rng.NextInRange(kMin, kMin), kMin);
  EXPECT_EQ(rng.NextInRange(kMax, kMax), kMax);
}

// Regression: cancelled events used to sit in the heap as tombstones until
// they surfaced at the top, so a workload that schedules far-future timers
// and cancels them (every crashed process does) grew the heap without
// bound. Compaction now keeps the heap O(live).
TEST(SimulatorTest, CancelHeavyLoadKeepsHeapCompacted) {
  Simulator s;
  int survivor_ran = 0;
  s.Schedule(Seconds(100), [&]() { ++survivor_ran; });
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(s.Schedule(Seconds(10 + i), []() {}));
    }
    for (const EventId id : ids) {
      EXPECT_TRUE(s.Cancel(id));
    }
    // Tombstones never exceed half the heap, so the heap stays within a
    // small factor of the live count (1 here) at every quiescent point.
    EXPECT_LE(s.heap_size(), 2 * s.pending_events() + 1);
  }
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunUntilIdle();
  EXPECT_EQ(survivor_ran, 1);
}

// RunUntil over a queue holding only cancelled events must run nothing and
// still advance the clock to the deadline.
TEST(SimulatorTest, RunUntilOverOnlyCancelledEventsAdvancesClock) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(s.Schedule(Milliseconds(i + 1), []() {}));
  }
  for (const EventId id : ids) {
    EXPECT_TRUE(s.Cancel(id));
  }
  EXPECT_EQ(s.RunUntil(Milliseconds(10)), 0u);
  EXPECT_EQ(s.Now(), Milliseconds(10));
  EXPECT_EQ(s.events_executed(), 0u);
}

// A zero-delay Schedule lands after already-queued events at the same
// time: sequence numbers break the tie, so an event that reschedules at
// delay 0 cannot jump ahead of its peers.
TEST(SimulatorTest, ZeroDelayScheduleRunsAfterSameTimeQueuedEvents) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(0, [&]() {
    order.push_back(1);
    s.Schedule(0, [&]() { order.push_back(3); });
  });
  s.Schedule(0, [&]() { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// An already-true predicate returns before any event runs or the clock
// moves — RunUntilPredicate is a pure query in that case.
TEST(SimulatorTest, RunUntilPredicateAlreadyTrueExecutesNoEvents) {
  Simulator s;
  bool ran = false;
  s.Schedule(Milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(s.RunUntilPredicate([]() { return true; }, Seconds(1)));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.Now(), kTimeZero);
}

// --- checkpoint / restore ---

TEST(SimulatorSnapshot, RestoreReplaysTheBranchIdentically) {
  Simulator s;
  s.SetEventRetention(true);
  std::vector<std::pair<Time, uint64_t>> run_log;
  // A self-rescheduling chain that consumes randomness, so any divergence
  // in clock, order, or RNG state after a restore shows up in the log.
  std::function<void()> tick = [&]() {
    run_log.emplace_back(s.Now(), s.Rand().Next());
    if (run_log.size() % 8 != 0) {
      s.Schedule(Milliseconds(1) + s.Rand().NextBelow(50), tick);
    }
  };
  s.Schedule(Milliseconds(1), tick);
  s.RunFor(Milliseconds(3));

  const Simulator::Checkpoint checkpoint = s.Snapshot();
  const size_t prefix = run_log.size();
  s.RunUntilIdle();
  const std::vector<std::pair<Time, uint64_t>> first_branch = run_log;
  const uint64_t executed_after = s.events_executed();
  const Time end_time = s.Now();

  run_log.resize(prefix);
  s.Restore(checkpoint);
  EXPECT_EQ(s.Now(), checkpoint.now);
  EXPECT_EQ(s.events_executed(), checkpoint.events_executed);
  s.RunUntilIdle();
  EXPECT_EQ(run_log, first_branch);
  EXPECT_EQ(s.events_executed(), executed_after);
  EXPECT_EQ(s.Now(), end_time);
}

TEST(SimulatorSnapshot, RestoreTruncatesTheTrace) {
  Simulator s;
  s.SetEventRetention(true);
  s.Trace().Append(s.Now(), "test", "before");
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  s.Trace().Append(s.Now(), "test", "after");
  EXPECT_EQ(s.Trace().size(), 2u);
  s.Restore(checkpoint);
  EXPECT_EQ(s.Trace().size(), 1u);
}

// Repeated restore + re-run cycles must not accumulate retained closures:
// Restore purges the abandoned branch (ids at or above the checkpoint's
// next sequence number), and the replayed branch re-issues the same ids.
TEST(SimulatorSnapshot, RepeatedRestoreBoundsRetainedEvents) {
  Simulator s;
  s.SetEventRetention(true);
  s.Schedule(Seconds(5), []() {});  // stays pending across the branches
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  size_t retained_after_first_branch = 0;
  for (int branch = 0; branch < 20; ++branch) {
    for (int i = 0; i < 10; ++i) {
      s.Schedule(Milliseconds(i + 1), []() {});
    }
    s.RunFor(Milliseconds(20));
    if (branch == 0) {
      retained_after_first_branch = s.retained_events();
    } else {
      EXPECT_EQ(s.retained_events(), retained_after_first_branch);
    }
    s.Restore(checkpoint);
  }
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SimulatorSnapshot, RetentionAdoptsAlreadyPendingEvents) {
  Simulator s;
  int ran = 0;
  s.Schedule(Milliseconds(1), [&]() { ++ran; });  // scheduled pre-retention
  s.SetEventRetention(true);
  EXPECT_EQ(s.retained_events(), 1u);
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  s.RunUntilIdle();
  EXPECT_EQ(ran, 1);
  s.Restore(checkpoint);
  s.RunUntilIdle();
  EXPECT_EQ(ran, 2);  // the adopted copy replays like a schedule-time one
}

// --- cancel edge cases and bookkeeping bounds ---

TEST(SimulatorTest, CancelOfInvalidOrUnissuedIdsFails) {
  Simulator s;
  EXPECT_FALSE(s.Cancel(kInvalidEventId));
  const EventId id = s.Schedule(Milliseconds(1), []() {});
  EXPECT_FALSE(s.Cancel(id + 1));  // the next id, not yet issued
  EXPECT_FALSE(s.Cancel(id + 1000));
  EXPECT_FALSE(s.Cancel(kInvalidEventId));
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_TRUE(s.Cancel(id));
}

TEST(SimulatorTest, RunningEventCannotCancelItself) {
  Simulator s;
  EventId self = kInvalidEventId;
  bool cancelled = true;
  self = s.Schedule(Milliseconds(1), [&]() { cancelled = s.Cancel(self); });
  EXPECT_EQ(s.RunUntilIdle(), 1u);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(s.pending_events(), 0u);
}

// A self-rescheduling timer chain (the heartbeat shape) keeps at most a
// couple of ids pending, so the liveness bitmap must slide with it instead
// of spanning every id ever issued.
TEST(SimulatorTest, LivenessWindowStaysBoundedOverAMillionEvents) {
  Simulator s;
  s.Trace().set_enabled(false);
  constexpr uint64_t kEvents = 1000000;
  size_t widest = 0;
  std::function<void()> tick = [&]() {
    widest = std::max(widest, s.liveness_window());
    if (s.events_executed() < kEvents) {
      s.Schedule(Microseconds(1), tick);
    }
  };
  s.Schedule(Microseconds(1), tick);
  EXPECT_EQ(s.RunUntilIdle(), kEvents);
  EXPECT_LE(widest, 128u);
  EXPECT_LE(s.heap_size(), 1u);
}

// A long-pending timer pins the window open; once it is cancelled the
// window slides past the dead prefix again.
TEST(SimulatorTest, LivenessWindowShrinksOnceALongPendingTimerGoes) {
  Simulator s;
  const EventId long_timer = s.Schedule(Seconds(100), []() {});
  for (int i = 0; i < 10000; ++i) {
    s.Schedule(Microseconds(1), []() {});
    s.RunFor(Microseconds(1));
  }
  EXPECT_GE(s.liveness_window(), 10000u);
  EXPECT_TRUE(s.Cancel(long_timer));
  for (int i = 0; i < 256; ++i) {
    s.Schedule(Microseconds(1), []() {});
    s.RunFor(Microseconds(1));
  }
  EXPECT_LE(s.liveness_window(), 128u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorSnapshot, AbandonedBranchIdsCancelAsFalseUntilReissued) {
  Simulator s;
  s.SetEventRetention(true);
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  const EventId abandoned = s.Schedule(Milliseconds(5), []() {});
  EXPECT_EQ(s.retained_events(), 1u);
  s.Restore(checkpoint);
  EXPECT_EQ(s.retained_events(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.Cancel(abandoned));
  const EventId reissued = s.Schedule(Milliseconds(7), []() {});
  EXPECT_EQ(reissued, abandoned);
  EXPECT_TRUE(s.Cancel(abandoned));
}

// Restore/Snapshot preconditions are programming errors that must surface
// in every build type, not only where assert() is compiled in.
TEST(SimulatorSnapshot, RestoreWithoutRetentionThrows) {
  Simulator s;
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  EXPECT_THROW(s.Restore(checkpoint), std::logic_error);
}

TEST(SimulatorSnapshot, RestoreOfACheckpointFromTheFutureThrows) {
  Simulator s;
  s.SetEventRetention(true);
  const Simulator::Checkpoint past = s.Snapshot();
  s.Schedule(Milliseconds(1), []() {});
  s.RunUntilIdle();
  const Simulator::Checkpoint later = s.Snapshot();
  s.Restore(past);
  EXPECT_THROW(s.Restore(later), std::logic_error);
  Simulator::Checkpoint forged;
  forged.next_seq = 1000;
  EXPECT_THROW(s.Restore(forged), std::logic_error);
}

TEST(SimulatorSnapshot, RestoreOfAnUnretainedLiveEventThrowsAndChangesNothing) {
  Simulator s;
  s.Schedule(Milliseconds(1), []() {});
  const Simulator::Checkpoint checkpoint = s.Snapshot();  // retention off
  s.RunUntilIdle();  // the event runs before retention could adopt it
  s.SetEventRetention(true);
  const EventId pending = s.Schedule(Milliseconds(3), []() {});
  EXPECT_THROW(s.Restore(checkpoint), std::logic_error);
  EXPECT_EQ(s.Now(), Milliseconds(1));
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.retained_events(), 1u);
  EXPECT_TRUE(s.Cancel(pending));
}

TEST(SimulatorSnapshot, SnapshotWhileRetentionIsPausedThrows) {
  Simulator s;
  s.SetEventRetention(true);
  s.PauseEventRetention();
  EXPECT_THROW(s.Snapshot(), std::logic_error);
  s.SetEventRetention(true);  // resumes
  EXPECT_NO_THROW(s.Snapshot());
}

// --- sim::Callback and the slot queue ---

// Wraps a closure with padding that forces it out of the inline buffer.
template <typename F>
struct LargeConsumerOf {
  F fn;
  char padding[Callback::kInlineSize] = {};
  void operator()() { fn(); }
};
template <typename F>
LargeConsumerOf<F> LargeConsumer(F fn) {
  return LargeConsumerOf<F>{std::move(fn)};
}

// Records where the closure object lives when it runs.
struct WhereAmI {
  const void** out;
  void operator()() { *out = this; }
};
// Inline-sized, but its move may throw, so it cannot live in the buffer.
struct ThrowingMoveWhereAmI {
  const void** out;
  ThrowingMoveWhereAmI(const void** out_in) : out(out_in) {}
  ThrowingMoveWhereAmI(const ThrowingMoveWhereAmI& other) : out(other.out) {}
  void operator()() { *out = this; }
};

bool LivesInside(const void* object, const Callback& callback) {
  const auto* begin = reinterpret_cast<const char*>(&callback);
  const auto* at = static_cast<const char*>(object);
  return at >= begin && at < begin + sizeof(Callback);
}

TEST(CallbackTest, StoresSmallClosuresInlineAndBoxesTheRest) {
  static_assert(Callback::kStoredInline<WhereAmI>);
  static_assert(!Callback::kStoredInline<LargeConsumerOf<WhereAmI>>);
  static_assert(!Callback::kStoredInline<ThrowingMoveWhereAmI>);
  static_assert(Callback::kStoredInline<std::function<void()>>);

  const void* where = nullptr;
  Callback small(WhereAmI{&where});
  small();
  EXPECT_TRUE(LivesInside(where, small));

  Callback large(LargeConsumer(WhereAmI{&where}));
  large();
  EXPECT_FALSE(LivesInside(where, large));

  Callback throwing(ThrowingMoveWhereAmI{&where});
  throwing();
  EXPECT_FALSE(LivesInside(where, throwing));

  // Moving a boxed closure hands over the box: the target does not move.
  const void* before = where;
  Callback moved(std::move(throwing));
  moved();
  EXPECT_EQ(where, before);
}

TEST(CallbackTest, CopiesOfAMutableClosureStayPristine) {
  std::vector<std::string> out;
  const auto consume = [payload = std::string(40, 'x'), &out]() mutable {
    out.push_back(std::move(payload));  // empties the closure's own copy
  };
  for (Callback original : {Callback(consume), Callback(LargeConsumer(consume))}) {
    out.clear();
    const Callback copy = original;
    original();
    original();
    Callback replay = copy;
    replay();
    EXPECT_EQ(out, (std::vector<std::string>{std::string(40, 'x'), "", std::string(40, 'x')}));
  }
}

TEST(CallbackTest, MovedFromCallbackIsEmpty) {
  int runs = 0;
  Callback small([&runs]() { ++runs; });
  Callback large(LargeConsumer([&runs]() { ++runs; }));
  Callback small_target(std::move(small));
  Callback large_target;
  large_target = std::move(large);
  EXPECT_FALSE(small);
  EXPECT_FALSE(large);
  small_target();
  large_target();
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(Callback());
}

TEST(CallbackTest, EveryQueuedClosureIsDestroyedExactlyOnce) {
  int live = 0;
  {
    Simulator s;
    // Between steps the closures alive are exactly the queue's (one per
    // key, tombstones included) plus the retention log's copies.
    const auto check = [&](const char* step) {
      EXPECT_EQ(live, static_cast<int>(s.heap_size() + s.retained_events())) << step;
    };
    int ran = 0;
    const auto event = [&](bool large) -> Callback {
      const LiveToken token(&live);
      if (large) {
        return LargeConsumer([token, &ran]() { ++ran; });
      }
      return [token, &ran]() { ++ran; };
    };
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(s.Schedule(Milliseconds(1 + i), event(i % 3 == 0)));
    }
    check("schedule");
    s.Cancel(ids[0]);
    s.Cancel(ids[5]);
    check("cancel");
    for (int i = 6; i < 20; ++i) {
      s.Cancel(ids[i]);  // tombstones outgrow the live half: compaction
    }
    EXPECT_LE(s.heap_size(), 2 * s.pending_events() + 1);
    check("compact");
    s.RunUntilIdle();
    EXPECT_EQ(ran, 4);
    EXPECT_EQ(live, 0);

    s.SetEventRetention(true);
    for (int i = 0; i < 10; ++i) {
      s.Schedule(Milliseconds(1 + i), event(i % 2 == 0));
    }
    check("retained schedule");
    const Simulator::Checkpoint checkpoint = s.Snapshot();
    s.RunFor(Milliseconds(4));
    check("run");
    for (int i = 0; i < 5; ++i) {
      s.Schedule(Milliseconds(1), event(false));  // the branch Restore purges
    }
    s.Restore(checkpoint);
    check("restore");
    s.RunFor(Milliseconds(2));
    s.SetEventRetention(false);
    check("retention off");
  }
  EXPECT_EQ(live, 0);  // the simulator's destructor frees the rest
}

TEST(TraceTest, FilterByComponentPrefix) {
  TraceLog log;
  log.Append(1, "pbkv.n1", "elected");
  log.Append(2, "pbkv.n2", "vote");
  log.Append(3, "net", "drop");
  EXPECT_EQ(log.Filter("pbkv").size(), 2u);
  EXPECT_EQ(log.Filter("net").size(), 1u);
  EXPECT_EQ(log.Filter("").size(), 3u);
}

TEST(TraceTest, FilterMatchesOnComponentBoundaryOnly) {
  // "pbkv" must match the component itself and its dotted sub-components,
  // but not a different component that merely shares the prefix.
  TraceLog log;
  log.Append(1, "pbkv", "boot");
  log.Append(2, "pbkv.n1", "elected");
  log.Append(3, "pbkv2", "boot");
  log.Append(4, "pbkv2.n1", "elected");
  const auto matched = log.Filter("pbkv");
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0].component, "pbkv");
  EXPECT_EQ(matched[1].component, "pbkv.n1");
  EXPECT_EQ(log.Filter("pbkv2").size(), 2u);
}

TEST(TraceTest, CountEvent) {
  TraceLog log;
  log.Append(1, "a", "drop");
  log.Append(2, "b", "drop");
  log.Append(3, "c", "elected");
  EXPECT_EQ(log.CountEvent("drop"), 2u);
}

TEST(TraceTest, DisabledLogRecordsNothing) {
  TraceLog log;
  log.set_enabled(false);
  log.Append(1, "a", "x");
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceTest, DisabledLogStillCountsAppends) {
  // The documented counter-only mode for throughput benches: nothing is
  // retained, but appended() counts every call, before and after toggling.
  TraceLog log;
  log.Append(1, "a", "x");
  EXPECT_EQ(log.appended(), 1u);
  log.set_enabled(false);
  log.Append(2, "a", "y");
  log.Append(3, "a", "z");
  EXPECT_EQ(log.size(), 1u);  // only the enabled-time record is retained
  EXPECT_EQ(log.CountEvent("y"), 0u);
  EXPECT_EQ(log.appended(), 3u);
  log.set_enabled(true);
  log.Append(4, "a", "w");
  EXPECT_EQ(log.size(), 2u);  // the enabled-time records only
  EXPECT_EQ(log.appended(), 4u);
}

TEST(TraceTest, AppendReturnsPositionalIdsAndTruncateRewindsThem) {
  TraceLog log;
  EXPECT_EQ(log.Append(1, "a", "x"), 1u);
  EXPECT_EQ(log.Append(2, "a", "y"), 2u);
  EXPECT_EQ(log.Append(3, "a", "z"), 3u);
  log.Truncate(1);
  // Ids are positions, so a rewind re-issues them exactly — the property
  // fork/replay byte-identity rests on.
  EXPECT_EQ(log.Append(4, "a", "y2"), 2u);
  EXPECT_EQ(log.records()[1].id, 2u);
  // A disabled log issues no ids at all.
  log.set_enabled(false);
  EXPECT_EQ(log.Append(5, "a", "q"), 0u);
}

TEST(TraceTest, CauseContextStampsRecords) {
  TraceLog log;
  const uint64_t deliver = log.Append(1, "net", "deliver");
  EXPECT_EQ(log.records()[0].cause, 0u);
  {
    CauseScope scope(log, deliver);
    const uint64_t transition = log.Append(2, "sys.n1", "step-down");
    EXPECT_EQ(log.records()[1].cause, deliver);
    // A rebind redirects later appends to the newest transition...
    log.BindCause(transition);
    log.Append(3, "net", "send");
    EXPECT_EQ(log.records()[2].cause, transition);
    // ...but an explicit cause always wins over the context.
    log.Append(4, "net", "deliver", "", deliver);
    EXPECT_EQ(log.records()[3].cause, deliver);
  }
  // The scope restored the outer (empty) context, including over a rebind.
  log.Append(5, "sys.n1", "tick");
  EXPECT_EQ(log.records()[4].cause, 0u);
}

TEST(TraceTest, TruncateOnDisabledLogIsANoOp) {
  TraceLog log;
  log.Append(1, "a", "x");
  log.set_enabled(false);
  log.Append(2, "a", "y");
  log.Truncate(0);  // rewinds the retained record
  EXPECT_EQ(log.size(), 0u);
  log.Truncate(5);  // larger than the log: nothing to drop
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.appended(), 2u);  // the monotonic counter never rewinds
}

TEST(TraceTest, EventBigramsAreDistinctConsecutivePairsInFirstAppearanceOrder) {
  TraceLog log;
  log.Append(1, "a", "send");
  log.Append(2, "b", "drop");
  log.Append(3, "c", "send");
  log.Append(4, "d", "drop");   // send>drop again: deduplicated
  log.Append(5, "e", "elect");  // drop>elect: new
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 3u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"send", "drop"}));
  EXPECT_EQ(bigrams[1], (std::pair<std::string, std::string>{"drop", "send"}));
  EXPECT_EQ(bigrams[2], (std::pair<std::string, std::string>{"drop", "elect"}));
}

TEST(TraceTest, EventBigramsOfShortLogsAreEmpty) {
  TraceLog log;
  EXPECT_TRUE(log.EventBigrams().empty());
  log.Append(1, "a", "send");
  EXPECT_TRUE(log.EventBigrams().empty());
}

TEST(TraceTest, EventBigramsAlternatingPairsDefeatTheRunCompressionFastPath) {
  // The scan skips consecutive identical bigrams (runs of one event name).
  // Strict A/B alternation makes every adjacent bigram differ from the
  // previous one, so the fast path never fires — and must still yield
  // exactly the two distinct pairs.
  TraceLog log;
  for (int i = 0; i < 8; ++i) {
    log.Append(i + 1, "c", i % 2 == 0 ? "a" : "b");
  }
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 2u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"a", "b"}));
  EXPECT_EQ(bigrams[1], (std::pair<std::string, std::string>{"b", "a"}));
}

TEST(TraceTest, EventBigramsCompressRunsOfOneName) {
  // A run of the same event produces the self-pair once, however long.
  TraceLog log;
  for (int i = 0; i < 6; ++i) {
    log.Append(i + 1, "c", "hb");
  }
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 1u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"hb", "hb"}));
}

TEST(TraceTest, DumpContainsRecords) {
  TraceLog log;
  log.Append(Milliseconds(1), "pbkv.n1", "elected", "term=2");
  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("pbkv.n1"), std::string::npos);
  EXPECT_NE(dump.find("term=2"), std::string::npos);
}

}  // namespace
}  // namespace sim

namespace sim_property {
namespace {

// Model-based property: the simulator must run events in exactly the order
// a reference model (stable sort by time, then by scheduling sequence)
// predicts, including under random cancellations.
TEST(SimulatorProperty, MatchesReferenceModelUnderRandomSchedules) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng(seed);
    sim::Simulator simulator;
    std::vector<int> executed;
    struct ModelEvent {
      sim::Time when;
      uint64_t seq;
      int tag;
      sim::EventId id;
      bool cancelled = false;
    };
    std::vector<ModelEvent> model;
    for (int i = 0; i < 200; ++i) {
      const sim::Time when = static_cast<sim::Time>(rng.NextBelow(50));
      const sim::EventId id =
          simulator.Schedule(when, [&executed, i]() { executed.push_back(i); });
      model.push_back(ModelEvent{when, id, i, id});
    }
    // Cancel a random subset.
    for (ModelEvent& event : model) {
      if (rng.NextBool(0.3)) {
        event.cancelled = simulator.Cancel(event.id);
        EXPECT_TRUE(event.cancelled);
      }
    }
    simulator.RunUntilIdle();
    std::vector<ModelEvent> expected = model;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ModelEvent& a, const ModelEvent& b) {
                       return a.when != b.when ? a.when < b.when : a.seq < b.seq;
                     });
    std::vector<int> expected_tags;
    for (const ModelEvent& event : expected) {
      if (!event.cancelled) {
        expected_tags.push_back(event.tag);
      }
    }
    EXPECT_EQ(executed, expected_tags) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sim_property

namespace sim_oracle {
namespace {

// Differential oracle for the kernel's event bookkeeping: seeded random
// programs drive a Simulator and a naive reference — an ordered map keyed by
// (time, id) for the queue, a map from id to its retained (time, tag), and
// the live id set as the queue's ids — through Schedule/ScheduleAt, Cancel
// (of live, run, cancelled, never-issued and abandoned-branch ids),
// RunUntil/RunFor/RunUntilIdle, Snapshot/Restore and retention switching.
// After every step the execution order, each Cancel result,
// pending_events(), retained_events() and every Checkpoint::live must
// agree.
struct Reference {
  sim::Time now = sim::kTimeZero;
  sim::EventId next_seq = 1;
  std::map<std::pair<sim::Time, sim::EventId>, int> queue;  // -> tag
  std::map<sim::EventId, sim::Time> live;                   // id -> time
  std::map<sim::EventId, std::pair<sim::Time, int>> retained;
  bool retain = false;
  bool paused = false;
  std::vector<int> log;

  void Schedule(sim::Time when, int tag) {
    const sim::EventId id = next_seq++;
    queue[{when, id}] = tag;
    live[id] = when;
    if (retain && !paused) {
      retained.emplace(id, std::make_pair(when, tag));
    }
  }
  bool Cancel(sim::EventId id) {
    const auto it = live.find(id);
    if (it == live.end()) {
      return false;
    }
    queue.erase({it->second, id});
    live.erase(it);
    return true;
  }
  void RunUntil(sim::Time deadline, bool advance) {
    while (!queue.empty() && queue.begin()->first.first <= deadline) {
      const auto [key, tag] = *queue.begin();
      queue.erase(queue.begin());
      live.erase(key.second);
      now = key.first;
      log.push_back(tag);
      if (tag % 5 == 0) {  // mirrors MakeEvent's follow-up
        Schedule(now + tag % 17, tag + 1);
      }
    }
    if (advance) {
      now = std::max(now, deadline);
    }
  }
  void SetRetention(bool on) {
    if (on && (!retain || paused)) {
      for (const auto& [id, when] : live) {
        retained.emplace(id, std::make_pair(when, queue.at({when, id})));
      }
    }
    if (!on) {
      retained.clear();
    }
    retain = on;
    paused = false;
  }
};

sim::Callback MakeEvent(sim::Simulator* s, std::vector<int>* log, int tag, int* live) {
  return [s, log, tag, token = LiveToken(live)]() {
    log->push_back(tag);
    if (tag % 5 == 0) {
      s->Schedule(tag % 17, MakeEvent(s, log, tag + 1, token.live));
    }
  };
}

std::vector<sim::EventId> LiveIds(const Reference& ref) {
  std::vector<sim::EventId> ids;
  for (const auto& [id, when] : ref.live) {
    ids.push_back(id);
  }
  return ids;
}

// A program's operation mix: cumulative thresholds out of 100 (the rest
// switches retention on or off).
struct OpMix {
  uint64_t schedule;
  uint64_t cancel;
  uint64_t run;
  uint64_t idle;
  uint64_t snapshot;
  uint64_t restore;
  uint64_t pause;
  bool retain_from_start;
  double cancel_burst;  // chance a cancel step cancels a run of live ids
};

void RunProgram(uint64_t seed, const OpMix& mix) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  int live = 0;
  {
    sim::Rng rng(seed);
    sim::Simulator s;
    Reference ref;
    if (mix.retain_from_start) {
      s.SetEventRetention(true);
      ref.SetRetention(true);
    }
    std::vector<int> log;
    std::vector<std::pair<sim::Simulator::Checkpoint, Reference>> saved;
    sim::EventId max_issued = 0;
    int next_tag = 0;
    for (int step = 0; step < 120; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < mix.schedule) {
        // Mostly single events, sometimes a burst that carries the ids
        // across several bitmap words.
        const uint64_t count = rng.NextBool(0.1) ? 1 + rng.NextBelow(150) : 1;
        for (uint64_t i = 0; i < count; ++i) {
          const sim::Duration delay = static_cast<sim::Duration>(rng.NextBelow(40));
          const int tag = next_tag++;
          const sim::EventId id =
              rng.NextBool(0.5) ? s.Schedule(delay, MakeEvent(&s, &log, tag, &live))
                                : s.ScheduleAt(s.Now() + delay, MakeEvent(&s, &log, tag, &live));
          ASSERT_EQ(id, ref.next_seq);
          ref.Schedule(ref.now + delay, tag);
        }
      } else if (op < mix.cancel && rng.NextBool(mix.cancel_burst)) {
        // Cancel a run of live ids: tombstones pile up and the heap compacts.
        const size_t count = std::min<size_t>(ref.live.size(), 1 + rng.NextBelow(24));
        for (size_t i = 0; i < count; ++i) {
          const sim::EventId id =
              std::next(ref.live.begin(), rng.NextBelow(ref.live.size()))->first;
          ASSERT_TRUE(s.Cancel(id));
          ref.Cancel(id);
        }
      } else if (op < mix.cancel) {
        sim::EventId id = sim::kInvalidEventId;
        switch (rng.NextBelow(4)) {
          case 0:  // a live id, when there is one
            if (!ref.live.empty()) {
              id = std::next(ref.live.begin(), rng.NextBelow(ref.live.size()))->first;
            }
            break;
          case 1:  // any issued id: live, run or cancelled
            id = 1 + rng.NextBelow(ref.next_seq);
            break;
          case 2:  // abandoned-branch or never-issued ids
            id = ref.next_seq + rng.NextBelow(max_issued + 3 - std::min(max_issued, ref.next_seq));
            break;
          default:
            break;  // kInvalidEventId
        }
        ASSERT_EQ(s.Cancel(id), ref.Cancel(id)) << "cancel " << id;
      } else if (op < mix.run) {
        const sim::Duration delta = static_cast<sim::Duration>(rng.NextBelow(30));
        if (rng.NextBool(0.5)) {
          s.RunFor(delta);
        } else {
          s.RunUntil(s.Now() + delta);
        }
        ref.RunUntil(ref.now + delta, /*advance=*/true);
      } else if (op < mix.idle) {
        s.RunUntilIdle();
        ref.RunUntil(std::numeric_limits<sim::Time>::max(), /*advance=*/false);
      } else if (op < mix.snapshot) {
        if (ref.paused) {
          ASSERT_THROW(s.Snapshot(), std::logic_error);
        } else {
          sim::Simulator::Checkpoint checkpoint = s.Snapshot();
          ASSERT_EQ(checkpoint.live, LiveIds(ref));
          ASSERT_EQ(checkpoint.next_seq, ref.next_seq);
          saved.emplace_back(std::move(checkpoint), ref);
        }
      } else if (op < mix.restore) {
        if (saved.empty()) {
          continue;
        }
        const auto& [checkpoint, then] = saved[rng.NextBelow(saved.size())];
        const bool valid =
            ref.retain && checkpoint.next_seq <= ref.next_seq &&
            std::all_of(then.live.begin(), then.live.end(),
                        [&](const auto& entry) { return ref.retained.count(entry.first) != 0; });
        if (!valid) {
          ASSERT_THROW(s.Restore(checkpoint), std::logic_error);
        } else {
          s.Restore(checkpoint);
          ref.retained.erase(ref.retained.lower_bound(checkpoint.next_seq), ref.retained.end());
          ref.queue.clear();
          ref.live.clear();
          for (const auto& [id, when] : then.live) {
            const auto& [retained_when, tag] = ref.retained.at(id);
            ref.queue[{retained_when, id}] = tag;
            ref.live[id] = retained_when;
          }
          ref.now = then.now;
          ref.next_seq = checkpoint.next_seq;
          ref.paused = false;
          log = then.log;  // the harness's own state, restored alongside
          ref.log = then.log;
        }
      } else if (op < mix.pause) {
        if (ref.retain) {
          s.PauseEventRetention();
          ref.paused = true;
        }
      } else {
        const bool on = rng.NextBool(0.8);
        s.SetEventRetention(on);
        ref.SetRetention(on);
      }
      max_issued = std::max(max_issued, ref.next_seq - 1);
      ASSERT_EQ(log, ref.log) << "step " << step;
      ASSERT_EQ(s.Now(), ref.now);
      ASSERT_EQ(s.pending_events(), ref.live.size());
      ASSERT_EQ(s.retained_events(), ref.retained.size());
      ASSERT_EQ(s.event_retention_paused(), ref.paused);
      ASSERT_EQ(live, static_cast<int>(s.heap_size() + s.retained_events()));
    }
  }
  EXPECT_EQ(live, 0);
}

TEST(SimulatorOracle, MatchesNaiveReferenceOnRandomPrograms) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    RunProgram(seed, OpMix{30, 50, 68, 71, 80, 90, 94, false, 0.0});
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Cancel-heavy programs under retention: compaction frees queue slots that
// later schedules and every Restore refill, so a slot handed to the wrong
// closure shows up as a diverging execution log.
TEST(SimulatorOracle, MatchesNaiveReferenceWithCompactionAndRestoreUnderRetention) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunProgram(seed, OpMix{32, 62, 74, 75, 84, 97, 98, true, 0.3});
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace sim_oracle

namespace sim_golden {
namespace {

struct Ping final : public net::Message {
  std::string_view TypeName() const override { return "Ping"; }
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// A fixed scenario exercising the full scheduling surface: timers, ties,
// cancellations, network traffic with jitter, a flaky link, and partition
// install/heal while packets are in flight.
std::string GoldenScheduleTrace(uint64_t seed) {
  sim::Simulator s(seed);
  net::FirewallPartitioner backend;
  net::Network network(&s, &backend);
  net::Partitioner partitioner(&backend);
  network.set_latency({sim::Microseconds(150), sim::Microseconds(90)});
  for (net::NodeId n = 1; n <= 5; ++n) {
    network.Register(n, [n, &s](const net::Envelope& e) {
      s.Trace().Append(s.Now(), "node" + std::to_string(n), "recv",
                       std::to_string(e.src) + "->" + std::to_string(n));
    });
  }
  network.SetLinkLoss(2, 3, 0.5);

  std::vector<sim::EventId> timers;
  for (int i = 0; i < 40; ++i) {
    timers.push_back(s.Schedule(sim::Microseconds(45 * i + 7), [&network, i]() {
      const net::NodeId src = static_cast<net::NodeId>(1 + i % 5);
      const net::NodeId dst = static_cast<net::NodeId>(1 + (i * 3 + 1) % 5);
      network.SendNew<Ping>(src, dst);
    }));
  }
  for (size_t i = 0; i < timers.size(); i += 4) {
    s.Cancel(timers[i]);
  }
  net::Partition partition;
  s.Schedule(sim::Microseconds(500),
             [&]() { partition = partitioner.Complete({1, 2}, {3, 4, 5}); });
  s.Schedule(sim::Microseconds(1300), [&]() { partitioner.Heal(partition); });
  s.RunUntilIdle();
  return s.Trace().Dump() + "#events=" + std::to_string(s.events_executed()) +
         " sent=" + std::to_string(network.messages_sent()) +
         " delivered=" + std::to_string(network.messages_delivered()) +
         " dropped=" + std::to_string(network.messages_dropped()) +
         " now=" + sim::FormatTime(s.Now());
}

// Golden digests recorded from the std::map-based event queue immediately
// before the binary-heap swap. The heap must replay the same seeded
// schedules into bit-identical traces; any divergence is an ordering bug.
TEST(DeterminismGolden, EventQueueReplaysTheRecordedSchedules) {
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(1)), 17290149954841914537ULL)
      << GoldenScheduleTrace(1);
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(2)), 13891609431013054173ULL);
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(3)), 6840748438253279289ULL);
}

}  // namespace
}  // namespace sim_golden

namespace sim_substream {
namespace {

struct Ping final : public net::Message {
  std::string_view TypeName() const override { return "Ping"; }
};

// Satellite regression: the network draws loss and jitter from its own RNG
// substream, so toggling jitter or flakiness must not perturb the random
// decisions systems make from the simulator's stream under the same seed.
std::vector<uint64_t> SystemDrawsWith(sim::Duration jitter, double loss) {
  sim::Simulator s(11);
  net::SwitchPartitioner backend;
  net::Network network(&s, &backend);
  network.set_latency({sim::Microseconds(100), jitter});
  network.Register(1, [](const net::Envelope&) {});
  network.Register(2, [](const net::Envelope&) {});
  if (loss > 0.0) {
    network.SetLinkLoss(1, 2, loss);
  }
  std::vector<uint64_t> draws;
  for (int i = 0; i < 32; ++i) {
    network.SendNew<Ping>(1, 2);  // consumes network randomness only
    s.RunUntilIdle();
    draws.push_back(s.Rand().Next());  // a system-logic draw
  }
  return draws;
}

TEST(NetworkRngSubstream, NetworkRandomnessNeverPerturbsSystemDraws) {
  const std::vector<uint64_t> baseline = SystemDrawsWith(0, 0.0);
  EXPECT_EQ(baseline, SystemDrawsWith(sim::Microseconds(80), 0.0));
  EXPECT_EQ(baseline, SystemDrawsWith(sim::Microseconds(80), 0.5));
  EXPECT_EQ(baseline, SystemDrawsWith(0, 0.9));
}

}  // namespace
}  // namespace sim_substream
