// Wire messages of the scheduler system.

#ifndef SYSTEMS_SCHED_MESSAGES_H_
#define SYSTEMS_SCHED_MESSAGES_H_

#include <cstdint>
#include <string>

#include "net/message.h"

namespace sched {

// --- client <-> ResourceManager / AppMaster ---

struct SubmitTask final : public net::Message {
  std::string_view TypeName() const override { return "sched.SubmitTask"; }
  uint64_t request_id = 0;
  std::string task_id;
};

struct SubmitAck final : public net::Message {
  std::string_view TypeName() const override { return "sched.SubmitAck"; }
  uint64_t request_id = 0;
  bool ok = false;
};

// Sent by an AppMaster whose commit went through.
struct ResultNotification final : public net::Message {
  std::string_view TypeName() const override { return "sched.ResultNotification"; }
  std::string task_id;
  int attempt = 0;
};

// --- ResourceManager <-> AppMaster host ---

struct StartAppMaster final : public net::Message {
  std::string_view TypeName() const override { return "sched.StartAppMaster"; }
  std::string task_id;
  int attempt = 0;
  net::NodeId client = net::kInvalidNode;
};

struct AmHeartbeat final : public net::Message {
  std::string_view TypeName() const override { return "sched.AmHeartbeat"; }
  std::string task_id;
  int attempt = 0;
};

struct TaskDone final : public net::Message {
  std::string_view TypeName() const override { return "sched.TaskDone"; }
  std::string task_id;
  int attempt = 0;
};

// --- AppMaster <-> workers ---

struct RunContainer final : public net::Message {
  std::string_view TypeName() const override { return "sched.RunContainer"; }
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

struct ContainerDone final : public net::Message {
  std::string_view TypeName() const override { return "sched.ContainerDone"; }
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

// --- output store ---

struct RegisterAttempt final : public net::Message {
  std::string_view TypeName() const override { return "sched.RegisterAttempt"; }
  std::string task_id;
  int attempt = 0;
};

struct RecordExecution final : public net::Message {
  std::string_view TypeName() const override { return "sched.RecordExecution"; }
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

struct CommitResult final : public net::Message {
  std::string_view TypeName() const override { return "sched.CommitResult"; }
  std::string task_id;
  int attempt = 0;
};

struct CommitAck final : public net::Message {
  std::string_view TypeName() const override { return "sched.CommitAck"; }
  std::string task_id;
  int attempt = 0;
  bool accepted = false;
};

}  // namespace sched

#endif  // SYSTEMS_SCHED_MESSAGES_H_
