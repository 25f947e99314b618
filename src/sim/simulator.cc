#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace sim {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

EventId Simulator::Schedule(Duration delay, std::function<void()> fn) {
  assert(delay >= 0 && "cannot schedule in the past");
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, std::function<void()> fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const EventId id = next_seq_++;
  heap_.push_back(Event{when, id, std::move(fn)});
  if (retain_events_ && !retention_paused_) {
    // Copy before the event can run: the retained closure must stay
    // pristine even after the heap's copy runs (mutable lambdas may consume
    // their captures when invoked).
    Retain(heap_.back());
  }
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  MarkLive(id);
  return id;
}

void Simulator::MarkLive(EventId id) {
  while (id - live_base_ >= 64 * live_.size()) {
    // Drop leading all-zero words once they are half the bitmap: it then
    // spans O(oldest pending .. next_seq_) and each word moves O(1) times.
    const auto first_live =
        std::find_if(live_.begin(), live_.end(), [](uint64_t word) { return word != 0; });
    if (2 * (first_live - live_.begin()) >= std::ssize(live_)) {
      live_base_ += 64 * (first_live - live_.begin());
      live_.erase(live_.begin(), first_live);
    }
    live_.push_back(0);
  }
  live_[(id - live_base_) / 64] |= uint64_t{1} << id % 64;
  ++pending_;
}

void Simulator::Retain(const Event& event) {
  const size_t slot = event.seq - retained_base_;
  if (slot >= retained_.size()) {
    retained_.resize(slot + 1);  // ids scheduled while paused stay holes
  } else if (retained_[slot].fn) {
    return;  // never overwrite an earlier schedule-time copy
  }
  retained_[slot] = event;
  ++retained_count_;
}

bool Simulator::Cancel(EventId id) {
  // Lazy cancellation: the heap entry stays as a tombstone and is discarded
  // when it reaches the top — or collectively, once tombstones outnumber
  // the live half of the heap (cancel-heavy workloads would otherwise grow
  // the heap without bound).
  if (!IsLive(id)) {
    return false;
  }
  MarkDead(id);
  if (heap_.size() > 2 * pending_) {
    CompactHeap();
  }
  return true;
}

void Simulator::DropCancelled() {
  while (!heap_.empty() && !IsLive(heap_.front().seq)) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    heap_.pop_back();
  }
}

void Simulator::CompactHeap() {
  std::erase_if(heap_, [this](const Event& event) { return !IsLive(event.seq); });
  std::make_heap(heap_.begin(), heap_.end(), EventLater{});
}

bool Simulator::QueueEmpty() {
  DropCancelled();
  return heap_.empty();
}

void Simulator::RunOne() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  MarkDead(event.seq);
  now_ = event.when;
  ++events_executed_;
  // Each event runs with a clean cause context: a BindCause issued inside a
  // handler (cluster/process.cc) is scoped to that event and cannot leak
  // into an unrelated timer callback.
  CauseScope scope(trace_, 0);
  event.fn();
}

uint64_t Simulator::RunUntilIdle() {
  uint64_t n = 0;
  while (!QueueEmpty()) {
    RunOne();
    ++n;
  }
  return n;
}

uint64_t Simulator::RunUntil(Time deadline) {
  uint64_t n = 0;
  while (!QueueEmpty() && NextEventTime() <= deadline) {
    RunOne();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

uint64_t Simulator::RunFor(Duration delta) { return RunUntil(now_ + delta); }

void Simulator::SetEventRetention(bool retain) {
  if (!retain) {
    retained_.clear();
    retained_count_ = 0;
  } else if (!retain_events_ || retention_paused_) {
    if (!retain_events_) {
      retained_base_ = live_base_;  // no older event can be pending to adopt
    }
    // Adopt the pending events: heap entries are never invoked in place, so
    // these copies are as pristine as schedule-time ones (which Retain keeps
    // for events retained before a pause).
    for (const Event& event : heap_) {
      if (IsLive(event.seq)) {
        Retain(event);
      }
    }
  }
  retain_events_ = retain;
  retention_paused_ = false;
}

void Simulator::PauseEventRetention() {
  assert(retain_events_ && "pausing retention requires it to be on");
  retention_paused_ = true;
}

Simulator::Checkpoint Simulator::Snapshot() const {
  if (retention_paused_) {
    throw std::logic_error("Simulator::Snapshot while event retention is paused");
  }
  Checkpoint checkpoint;
  checkpoint.now = now_;
  checkpoint.next_seq = next_seq_;
  checkpoint.events_executed = events_executed_;
  checkpoint.rng = rng_;
  checkpoint.trace_size = trace_.size();
  checkpoint.live.reserve(pending_);
  for (size_t w = 0; w < live_.size(); ++w) {
    for (uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
      checkpoint.live.push_back(live_base_ + 64 * w + std::countr_zero(bits));
    }
  }
  return checkpoint;
}

void Simulator::Restore(const Checkpoint& checkpoint) {
  if (!retain_events_) {
    throw std::logic_error("Simulator::Restore requires event retention");
  }
  if (checkpoint.next_seq > next_seq_) {
    throw std::logic_error("Simulator::Restore: checkpoint is from this simulator's future");
  }
  for (const EventId id : checkpoint.live) {
    if (id >= checkpoint.next_seq || id - retained_base_ >= retained_.size() ||
        !retained_[id - retained_base_].fn) {
      throw std::logic_error("Simulator::Restore: a live checkpoint event was never retained");
    }
  }
  // Purge the abandoned branch (the replayed one re-issues its ids), which
  // bounds the retention log at O(one branch).
  const auto dead_branch = retained_.begin() + std::min<size_t>(
      retained_.size(), checkpoint.next_seq - std::min(retained_base_, checkpoint.next_seq));
  retained_count_ -= std::count_if(dead_branch, retained_.end(),
                                   [](const Event& event) { return event.fn != nullptr; });
  retained_.erase(dead_branch, retained_.end());
  // A checkpoint older than the log has just emptied it: restart it there.
  retained_base_ = std::min(retained_base_, checkpoint.next_seq);
  heap_.clear();
  live_.clear();
  live_base_ = (checkpoint.live.empty() ? checkpoint.next_seq : checkpoint.live.front()) / 64 * 64;
  pending_ = 0;
  for (const EventId id : checkpoint.live) {  // ascending, as MarkLive needs
    heap_.push_back(retained_[id - retained_base_]);
    MarkLive(id);
  }
  std::make_heap(heap_.begin(), heap_.end(), EventLater{});
  now_ = checkpoint.now;
  next_seq_ = checkpoint.next_seq;
  events_executed_ = checkpoint.events_executed;
  rng_ = checkpoint.rng;
  trace_.Truncate(checkpoint.trace_size);
  // Pause-era pending events went with the heap, so all is retained again.
  retention_paused_ = false;
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred, Time deadline) {
  if (pred()) {
    return true;
  }
  while (!QueueEmpty() && NextEventTime() <= deadline) {
    RunOne();
    if (pred()) {
      return true;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return pred();
}

}  // namespace sim
