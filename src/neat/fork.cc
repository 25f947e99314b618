#include "neat/fork.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace neat {
namespace {

// FNV-1a over the attributes TestEvent::operator== compares; the digest of
// a prefix is the running hash after mixing each event in order. Collisions
// are survivable (lookups verify the stored prefix) but should be rare.
uint64_t MixEvent(uint64_t hash, const TestEvent& event) {
  const auto mix = [&hash](uint64_t word) {
    hash ^= word;
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(event.kind));
  mix(static_cast<uint64_t>(event.partition));
  mix(static_cast<uint64_t>(event.target));
  mix(static_cast<uint64_t>(event.side));
  return hash;
}

constexpr uint64_t kEmptyPrefixDigest = 14695981039346656037ull;

bool SamePrefix(const TestCase& cached, const TestCase& incoming, size_t length) {
  if (cached.size() != length || incoming.size() < length) {
    return false;
  }
  return std::equal(cached.begin(), cached.end(), incoming.begin());
}

// Applies every event of the case to the runner, then finishes it.
ExecutionResult RunThrough(CaseRunner& runner, const TestCase& test_case) {
  for (const TestEvent& event : test_case) {
    runner.ApplyEvent(event);
  }
  return runner.Finish(test_case);
}

}  // namespace

ForkingExecutor::ForkingExecutor(RunnerFactory factory, ForkOptions options)
    : factory_(std::move(factory)), options_(options) {
  if (options_.snapshot_cache == 0) {
    options_.snapshot_cache = 1;
  }
  if (options_.runner_cache == 0) {
    options_.runner_cache = 1;
  }
}

ForkingExecutor::Branch& ForkingExecutor::BranchFor(uint64_t seed) {
  auto it = branches_.find(seed);
  if (it == branches_.end()) {
    while (branches_.size() >= options_.runner_cache) {
      auto victim = branches_.begin();
      for (auto candidate = branches_.begin(); candidate != branches_.end(); ++candidate) {
        if (candidate->second.last_used < victim->second.last_used) {
          victim = candidate;
        }
      }
      stats_.snapshots_evicted += victim->second.snapshots.size();
      branches_.erase(victim);
    }
    it = branches_.emplace(seed, Branch{}).first;
  }
  Branch& branch = it->second;
  branch.last_used = ++tick_;
  if (branch.runner == nullptr) {
    branch.runner = factory_(seed);
    ++stats_.fresh_runners;
    branch.snapshots.clear();
    // Retention must be on before any event the fork may rewind over is
    // scheduled; enabling it here (before the root snapshot) also adopts
    // the events still pending from the constructor's setup phase.
    branch.runner->Env().simulator().SetEventRetention(true);
    std::unique_ptr<SystemState> root = branch.runner->Snapshot();
    branch.forkable = root != nullptr;
    if (branch.forkable) {
      ++stats_.snapshots_taken;
      branch.snapshots.emplace(
          kEmptyPrefixDigest, CachedSnapshot{TestCase{}, std::move(root), ++tick_, ++tick_});
    }
  }
  return branch;
}

void ForkingExecutor::CacheSnapshot(Branch* branch, const TestCase& prefix, size_t length) {
  uint64_t digest = kEmptyPrefixDigest;
  for (size_t i = 0; i < length; ++i) {
    digest = MixEvent(digest, prefix[i]);
  }
  std::unique_ptr<SystemState> state = branch->runner->Snapshot();
  if (state == nullptr) {
    return;
  }
  ++stats_.snapshots_taken;
  branch->snapshots[digest] =
      CachedSnapshot{TestCase(prefix.begin(), prefix.begin() + static_cast<std::ptrdiff_t>(length)),
                     std::move(state), ++tick_, ++tick_};
  // Evict LRU entries beyond the bound; the root (empty prefix) is pinned
  // so a branch can always rewind to its post-setup state.
  while (branch->snapshots.size() > options_.snapshot_cache + 1) {
    auto victim = branch->snapshots.end();
    for (auto it = branch->snapshots.begin(); it != branch->snapshots.end(); ++it) {
      if (it->first == kEmptyPrefixDigest) {
        continue;
      }
      if (victim == branch->snapshots.end() || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == branch->snapshots.end()) {
      break;
    }
    branch->snapshots.erase(victim);
    ++stats_.snapshots_evicted;
  }
}

ExecutionResult ForkingExecutor::Run(const TestCase& test_case, uint64_t seed) {
  Branch& branch = BranchFor(seed);
  ++stats_.cases_run;

  if (!branch.forkable) {
    // The system does not support snapshots: run the case on the fresh
    // runner and discard it (Finish perturbs the state and there is no way
    // back without a snapshot).
    std::unique_ptr<CaseRunner> runner = std::move(branch.runner);
    stats_.events_applied += test_case.size();
    return RunThrough(*runner, test_case);
  }

  // Longest cached prefix of the incoming case. Walking the case's own
  // prefix digests front to back keeps the scan O(length); the candidate
  // with the greatest length wins.
  uint64_t digest = kEmptyPrefixDigest;
  size_t best_length = 0;
  uint64_t best_digest = kEmptyPrefixDigest;
  for (size_t length = 0;; ++length) {
    const auto hit = branch.snapshots.find(digest);
    if (hit != branch.snapshots.end() && SamePrefix(hit->second.prefix, test_case, length)) {
      best_length = length;
      best_digest = digest;
    }
    if (length == test_case.size()) {
      break;
    }
    digest = MixEvent(digest, test_case[length]);
  }

  // Always restore — even for a full-length hit — because the previous
  // case's Finish (heal, settle, final reads) perturbed the live state.
  CachedSnapshot& base = branch.snapshots.at(best_digest);
  base.last_used = ++tick_;
  // Restoring rewinds the simulator's retained-event log and trace to the
  // base's position, and the continuation then rewrites that history —
  // which silently corrupts every snapshot captured after the base (their
  // trace sizes and event ids now index the new sibling's records). Drop
  // them: the cache is kept as a strict chain of ancestors of the live
  // state, which DFS-ordered suites re-fill on the way back down.
  for (auto it = branch.snapshots.begin(); it != branch.snapshots.end();) {
    if (it->second.birth > base.birth) {
      it = branch.snapshots.erase(it);
      ++stats_.snapshots_invalidated;
    } else {
      ++it;
    }
  }
  branch.runner->Restore(*base.state);
  stats_.events_forked_over += best_length;
  if (best_length > 0) {
    ++stats_.forked_runs;
  }

  for (size_t i = best_length; i < test_case.size(); ++i) {
    branch.runner->ApplyEvent(test_case[i]);
    ++stats_.events_applied;
    CacheSnapshot(&branch, test_case, i + 1);
  }
  // No snapshot is ever taken after Finish starts, and its events (heal,
  // settles, final reads — often thousands) are all scheduled past every
  // cached checkpoint's next_seq, so retaining them only to purge them on
  // the next Restore is pure overhead. Pause retention for the teardown;
  // the next case's Restore resumes it.
  branch.runner->Env().simulator().PauseEventRetention();
  return branch.runner->Finish(test_case);
}

CaseExecutor ReplayExecutor(RunnerFactory factory) {
  return [factory = std::move(factory)](const TestCase& test_case, uint64_t seed) {
    return RunThrough(*factory(seed), test_case);
  };
}

CaseExecutor ForkingCaseExecutor(RunnerFactory factory, ForkOptions options,
                                 std::shared_ptr<ForkStats> stats) {
  auto executor = std::make_shared<ForkingExecutor>(std::move(factory), options);
  return [executor, stats](const TestCase& test_case, uint64_t seed) {
    ExecutionResult result = executor->Run(test_case, seed);
    if (stats != nullptr) {
      *stats = executor->stats();
    }
    return result;
  };
}

SessionFactory ForkingSessions(RunnerFactory factory, ForkOptions options) {
  return [factory = std::move(factory), options]() {
    return ForkingCaseExecutor(factory, options);
  };
}

}  // namespace neat
