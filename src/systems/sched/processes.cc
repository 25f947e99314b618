#include "systems/sched/processes.h"

#include <algorithm>
#include <cassert>

namespace sched {

// --- OutputStore ---

OutputStore::OutputStore(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                         const Options& options)
    : cluster::Process(simulator, network, id, "sched.store"), options_(options) {}

void OutputStore::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* reg = net::As<RegisterAttempt>(msg)) {
    current_attempt_[reg->task_id] = reg->attempt;
    return;
  }
  if (auto* record = net::As<RecordExecution>(msg)) {
    container_runs_.push_back(check::TaskExecution{
        record->task_id + "#p" + std::to_string(record->part), envelope.src, Now()});
    return;
  }
  if (auto* commit = net::As<CommitResult>(msg)) {
    bool accepted = true;
    if (options_.fence_commits) {
      auto it = current_attempt_.find(commit->task_id);
      accepted = it != current_attempt_.end() && it->second == commit->attempt;
    }
    if (accepted) {
      commits_.push_back(check::TaskExecution{commit->task_id, envelope.src, Now()});
      TraceEvent("commit", commit->task_id + " attempt=" + std::to_string(commit->attempt));
    } else {
      TraceEvent("commit-fenced",
                 commit->task_id + " attempt=" + std::to_string(commit->attempt));
    }
    auto ack = std::make_shared<CommitAck>();
    ack->task_id = commit->task_id;
    ack->attempt = commit->attempt;
    ack->accepted = accepted;
    SendEnvelope(envelope.src, ack);
    return;
  }
}

// --- Worker (and AppMaster role) ---

Worker::Worker(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> workers, net::NodeId rm,
               net::NodeId store)
    : cluster::Process(simulator, network, id, "sched.w" + std::to_string(id)),
      options_(options),
      workers_(std::move(workers)),
      rm_(rm),
      store_(store) {}

bool Worker::HostsAppMasterFor(const std::string& task_id) const {
  return app_masters_.count(task_id) != 0;
}

void Worker::DispatchContainer(const std::string& task_id, AppMaster& am, int part) {
  // Rotate the target on each retry so a dead worker is routed around.
  const int tries = am.dispatch_tries[part]++;
  const net::NodeId target =
      workers_[static_cast<size_t>(part + tries) % workers_.size()];
  auto run = std::make_shared<RunContainer>();
  run->task_id = task_id;
  run->attempt = am.attempt;
  run->part = part;
  SendEnvelope(target, run);
}

void Worker::StartAm(const StartAppMaster& msg) {
  AppMaster am;
  am.attempt = msg.attempt;
  am.client = msg.client;
  TraceEvent("am-start", msg.task_id + " attempt=" + std::to_string(msg.attempt));
  // Fan containers out across the workers (including ourselves).
  for (int part = 0; part < options_.containers_per_task; ++part) {
    am.pending_parts.insert(part);
    DispatchContainer(msg.task_id, am, part);
  }
  const std::string task_id = msg.task_id;
  app_masters_[task_id] = std::move(am);
  // Heartbeat to the RM until the task is done (or we stop hosting it), and
  // re-dispatch containers that never report back.
  Every(options_.am_heartbeat_interval, [this, task_id]() {
    auto it = app_masters_.find(task_id);
    if (it != app_masters_.end() && !it->second.committed) {
      auto hb = std::make_shared<AmHeartbeat>();
      hb->task_id = task_id;
      hb->attempt = it->second.attempt;
      SendEnvelope(rm_, hb);
    }
  });
  Every(3 * options_.container_runtime, [this, task_id]() {
    auto it = app_masters_.find(task_id);
    if (it == app_masters_.end() || it->second.committed) {
      return;
    }
    for (int part : it->second.pending_parts) {
      DispatchContainer(task_id, it->second, part);
    }
  });
}

void Worker::OnContainerDone(const ContainerDone& msg) {
  auto it = app_masters_.find(msg.task_id);
  if (it == app_masters_.end() || it->second.attempt != msg.attempt) {
    return;
  }
  it->second.pending_parts.erase(msg.part);
  if (it->second.pending_parts.empty() && !it->second.committed) {
    auto commit = std::make_shared<CommitResult>();
    commit->task_id = msg.task_id;
    commit->attempt = msg.attempt;
    SendEnvelope(store_, commit);
  }
}

void Worker::OnCommitAck(const CommitAck& msg) {
  auto it = app_masters_.find(msg.task_id);
  if (it == app_masters_.end() || it->second.attempt != msg.attempt) {
    return;
  }
  if (!msg.accepted) {
    TraceEvent("am-fenced", msg.task_id);
    app_masters_.erase(it);
    return;
  }
  it->second.committed = true;
  auto note = std::make_shared<ResultNotification>();
  note->task_id = msg.task_id;
  note->attempt = msg.attempt;
  SendEnvelope(it->second.client, note);
  auto done = std::make_shared<TaskDone>();
  done->task_id = msg.task_id;
  done->attempt = msg.attempt;
  SendEnvelope(rm_, done);
}

void Worker::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* start = net::As<StartAppMaster>(msg)) {
    StartAm(*start);
    return;
  }
  if (auto* run = net::As<RunContainer>(msg)) {
    // Execute the container: takes time, then reports to the store and the
    // requesting AppMaster.
    const RunContainer job = *run;
    const net::NodeId am = envelope.src;
    After(options_.container_runtime, [this, job, am]() {
      auto record = std::make_shared<RecordExecution>();
      record->task_id = job.task_id;
      record->attempt = job.attempt;
      record->part = job.part;
      SendEnvelope(store_, record);
      auto done = std::make_shared<ContainerDone>();
      done->task_id = job.task_id;
      done->attempt = job.attempt;
      done->part = job.part;
      SendEnvelope(am, done);
    });
    return;
  }
  if (auto* done = net::As<ContainerDone>(msg)) {
    OnContainerDone(*done);
    return;
  }
  if (auto* ack = net::As<CommitAck>(msg)) {
    OnCommitAck(*ack);
    return;
  }
}

// --- ResourceManager ---

ResourceManager::ResourceManager(sim::Simulator* simulator, net::Network* network,
                                 net::NodeId id, const Options& options,
                                 std::vector<net::NodeId> workers, net::NodeId store)
    : cluster::Process(simulator, network, id, "sched.rm"),
      options_(options),
      workers_(std::move(workers)),
      store_(store) {}

int ResourceManager::AttemptOf(const std::string& task_id) const {
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? 0 : it->second.attempt;
}

void ResourceManager::OnStart() {
  Every(options_.am_heartbeat_interval, [this]() { Tick(); });
}

void ResourceManager::Tick() {
  const sim::Duration timeout = options_.am_heartbeat_interval * options_.am_miss_threshold;
  for (auto& [task_id, task] : tasks_) {
    if (task.done) {
      continue;
    }
    if (Now() - task.last_am_heartbeat > timeout) {
      // The AppMaster is unreachable — which this RM, like the studied
      // systems, equates with crashed. Start a replacement attempt.
      TraceEvent("am-lost", task_id + " attempt=" + std::to_string(task.attempt));
      LaunchAttempt(task_id, task);
    }
  }
}

void ResourceManager::LaunchAttempt(const std::string& task_id, Task& task) {
  ++task.attempt;
  task.am_node = workers_[next_worker_ % workers_.size()];
  ++next_worker_;
  task.last_am_heartbeat = Now();
  auto reg = std::make_shared<RegisterAttempt>();
  reg->task_id = task_id;
  reg->attempt = task.attempt;
  SendEnvelope(store_, reg);
  auto start = std::make_shared<StartAppMaster>();
  start->task_id = task_id;
  start->attempt = task.attempt;
  start->client = task.client;
  SendEnvelope(task.am_node, start);
  TraceEvent("launch", task_id + " attempt=" + std::to_string(task.attempt) + " on n" +
                           std::to_string(task.am_node));
}

void ResourceManager::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* submit = net::As<SubmitTask>(msg)) {
    Task& task = tasks_[submit->task_id];
    task.client = envelope.src;
    LaunchAttempt(submit->task_id, task);
    auto ack = std::make_shared<SubmitAck>();
    ack->request_id = submit->request_id;
    ack->ok = true;
    SendEnvelope(envelope.src, ack);
    return;
  }
  if (auto* hb = net::As<AmHeartbeat>(msg)) {
    auto it = tasks_.find(hb->task_id);
    if (it != tasks_.end() && it->second.attempt == hb->attempt) {
      it->second.last_am_heartbeat = Now();
    }
    return;
  }
  if (auto* done = net::As<TaskDone>(msg)) {
    auto it = tasks_.find(done->task_id);
    if (it != tasks_.end()) {
      it->second.done = true;
    }
    return;
  }
}

// --- Client ---

Client::Client(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               int client_num, net::NodeId rm, check::History* history)
    : cluster::Process(simulator, network, id, "sched.c" + std::to_string(client_num)),
      client_num_(client_num),
      rm_(rm),
      history_(history) {}

void Client::BeginSubmit(const std::string& task_id) {
  assert(!outstanding_ && "one operation at a time");
  outstanding_ = true;
  current_request_id_ = next_request_id_++;
  pending_op_ = check::Operation{};
  pending_op_.client = client_num_;
  pending_op_.type = check::OpType::kSubmitTask;
  pending_op_.key = task_id;
  pending_op_.invoked = Now();
  auto submit = std::make_shared<SubmitTask>();
  submit->request_id = current_request_id_;
  submit->task_id = task_id;
  SendEnvelope(rm_, submit);
  timeout_timer_ = After(sim::Milliseconds(800), [this]() {
    if (outstanding_) {
      outstanding_ = false;
      pending_op_.completed = Now();
      pending_op_.status = check::OpStatus::kTimeout;
      last_op_ = pending_op_;
      if (history_ != nullptr) {
        last_op_.id = history_->Record(pending_op_);
      }
    }
  });
}

int Client::ResultCount(const std::string& task_id) const {
  int count = 0;
  for (const auto& [task, attempt] : results_) {
    if (task == task_id) {
      ++count;
    }
  }
  return count;
}

void Client::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* ack = net::As<SubmitAck>(msg)) {
    if (outstanding_ && ack->request_id == current_request_id_) {
      outstanding_ = false;
      simulator()->Cancel(timeout_timer_);
      pending_op_.completed = Now();
      pending_op_.status = ack->ok ? check::OpStatus::kOk : check::OpStatus::kFail;
      last_op_ = pending_op_;
      if (history_ != nullptr) {
        last_op_.id = history_->Record(pending_op_);
      }
    }
    return;
  }
  if (auto* note = net::As<ResultNotification>(msg)) {
    results_.emplace_back(note->task_id, note->attempt);
    return;
  }
}

}  // namespace sched
