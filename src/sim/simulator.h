// The discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and an event queue. Components schedule
// closures to run at future virtual times; the run loop pops events in
// (time, sequence) order, so execution is fully deterministic for a given
// seed and schedule. Events can be cancelled, which is how crashed processes
// retract their pending timers.
//
// The queue is a binary min-heap ordered by (time, sequence) with lazy
// cancellation: Cancel() clears the event's bit in a liveness bitmap indexed
// by id (ids are issued consecutively, so it need only span the ids from the
// oldest pending event on) and the tombstoned heap entry is discarded when it
// surfaces or when tombstones outnumber half the heap.
//
// The kernel also supports checkpoint/restore (Snapshot/Restore) for the
// NEAT fork executor. A checkpoint is reinstated on the *same* instance from
// retained closure copies, which capture pointers into the attached
// component graph: it is only meaningful where those components still live
// and are restored alongside it.

#ifndef SIM_SIMULATOR_H_
#define SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace sim {

// Identifies a scheduled event so it can be cancelled. Ids are consecutive;
// Restore re-issues an abandoned branch's ids on the restored branch.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }
  Rng& Rand() { return rng_; }
  TraceLog& Trace() { return trace_; }

  // Schedules `fn` to run `delay` microseconds from now. A zero delay runs
  // the event on the next loop iteration, after already-queued events at the
  // current time.
  EventId Schedule(Duration delay, std::function<void()> fn);

  // Schedules at an absolute virtual time, which must be >= Now().
  EventId ScheduleAt(Time when, std::function<void()> fn);

  // Cancels a pending event. Returns false if the event already ran (or is
  // running), was already cancelled, or was never issued.
  bool Cancel(EventId id);

  // Runs events until the queue drains. Returns the number of events run.
  uint64_t RunUntilIdle();

  // Runs events with time <= deadline, then advances the clock to exactly
  // `deadline` (even if the queue drained earlier). Returns events run.
  uint64_t RunUntil(Time deadline);

  // Convenience: RunUntil(Now() + delta).
  uint64_t RunFor(Duration delta);

  // Runs until `pred()` is true (checked after every event) or the queue
  // drains or `deadline` passes. Returns true if the predicate fired.
  bool RunUntilPredicate(const std::function<bool()>& pred, Time deadline);

  uint64_t events_executed() const { return events_executed_; }
  // Scheduled events that are neither run nor cancelled.
  size_t pending_events() const { return pending_; }
  // Raw heap entries including tombstones — exposed so tests can pin the
  // compaction bound (heap size stays O(live) under cancel-heavy load).
  size_t heap_size() const { return heap_.size(); }
  // Ids the liveness bitmap spans — exposed so tests can pin it to O(window).
  size_t liveness_window() const { return 64 * live_.size(); }

  // --- checkpoint / restore ---
  //
  // A Checkpoint is a value: plain scalars, an Rng copy, and the sorted ids
  // of the events that were live at capture time. It deliberately holds no
  // std::function — the closures themselves are recovered from the retention
  // vector on Restore, so a checkpoint can be copied, stored in an LRU, or
  // compared without touching captured state.
  struct Checkpoint {
    Time now = kTimeZero;
    uint64_t next_seq = 1;
    uint64_t events_executed = 0;
    Rng rng{1};
    size_t trace_size = 0;
    std::vector<EventId> live;  // sorted ascending; tombstones excluded
  };

  // Event retention keeps a pristine schedule-time copy of every event's
  // closure (heap entries are never invoked in place, so copies taken when
  // retention is switched on are equally pristine). Required for Restore;
  // Snapshot records only ids and works either way.
  void SetEventRetention(bool retain);
  bool event_retention() const { return retain_events_; }
  // Stops retaining new events but keeps the retained ones. Use when a
  // stretch will never be snapshotted (e.g. a case's teardown settle):
  // Restore would discard its events' copies unseen. Snapshot throws
  // std::logic_error while paused (its live events would not be
  // restorable). Resumed by Restore, or by SetEventRetention(true), which
  // re-adopts any still-pending unretained events.
  void PauseEventRetention();
  bool event_retention_paused() const { return retention_paused_; }
  // Retained closures currently held (live, run, and cancelled ones alike
  // until a Restore purges the dead branch) — exposed for memory tests.
  size_t retained_events() const { return retained_count_; }

  // Captures the kernel state. Quiescent-point rule: callers snapshot
  // between script steps (no event mid-execution); the capture itself is
  // read-only and excludes tombstoned heap entries by construction.
  Checkpoint Snapshot() const;

  // Reinstates a checkpoint taken earlier on this same instance: rewinds
  // clock/seq/RNG/trace, rebuilds the heap from retained copies of the
  // checkpoint's live events, drops retained events scheduled after it (the
  // restored branch re-issues those ids) and clears any retention pause.
  // Throws std::logic_error, changing nothing, unless retention is on, the
  // checkpoint is not from this simulator's future, and every live event in
  // it was retained.
  void Restore(const Checkpoint& checkpoint);

 private:
  struct Event {
    Time when;
    uint64_t seq;  // doubles as the EventId
    std::function<void()> fn;
  };
  // Min-heap comparator for std::push_heap/pop_heap (which build max-heaps).
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  // live_base_ is a multiple of 64, so an id's bit in its word is id % 64.
  bool IsLive(EventId id) const {  // id - live_base_ wraps below the base
    return id - live_base_ < 64 * live_.size() && (live_[(id - live_base_) / 64] >> id % 64 & 1);
  }
  void MarkDead(EventId id) {
    live_[(id - live_base_) / 64] &= ~(uint64_t{1} << id % 64);
    --pending_;
  }
  // Sets an id's bit, sliding the bitmap forward; ids arrive ascending.
  void MarkLive(EventId id);
  // Copies an event into its retention slot unless the slot is filled.
  void Retain(const Event& event);
  // Pops cancelled entries off the top until the heap is empty or live.
  void DropCancelled();
  // Rebuilds the heap without tombstones (run when they exceed half of it;
  // heap entries beyond pending_ are tombstones).
  void CompactHeap();
  // True when no live event remains (prunes tombstones first).
  bool QueueEmpty();
  // The time of the earliest live event. Requires !QueueEmpty().
  Time NextEventTime() const { return heap_.front().when; }
  // Pops and runs the earliest live event. Requires !QueueEmpty().
  void RunOne();

  Time now_ = kTimeZero;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  // detlint: allow(snapshot-field): a checkpoint records only live ids; Restore rebuilds the heap from their retention slots
  std::vector<Event> heap_;
  // Liveness bitmap: bit b of live_[w] is id live_base_ + 64 * w + b.
  std::vector<uint64_t> live_;
  EventId live_base_ = 0;  // a multiple of 64
  size_t pending_ = 0;     // set bits in live_
  // detlint: allow(snapshot-field): campaign-mode configuration, not per-run state; constant across a fork tree
  bool retain_events_ = false;
  bool retention_paused_ = false;
  // Pristine copies for Restore: slot i holds id retained_base_ + i (an
  // empty fn if it was never retained), so a dead branch is one suffix.
  // detlint: allow(snapshot-field): the durable event log the checkpoint indexes into; Restore replays it, a snapshot could not copy its closures
  std::vector<Event> retained_;
  // detlint: allow(snapshot-field): indexes the retention log, which outlives every checkpoint; moves only when retention starts or empties
  EventId retained_base_ = 0;
  // detlint: allow(snapshot-field): a count over the retention log's filled slots, maintained wherever they change
  size_t retained_count_ = 0;
  Rng rng_;
  TraceLog trace_;
};

}  // namespace sim

#endif  // SIM_SIMULATOR_H_
