#include "trace/trace.hpp"

#include <algorithm>

namespace avgpipe::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kForward: return "forward";
    case EventKind::kBackward: return "backward";
    case EventKind::kUpdate: return "update";
    case EventKind::kCommActivation: return "comm_act";
    case EventKind::kCommGradient: return "comm_grad";
    case EventKind::kCommAllReduce: return "comm_allreduce";
    case EventKind::kWaitComm: return "wait_comm";
    case EventKind::kWaitBubble: return "wait_bubble";
    case EventKind::kElasticPull: return "elastic_pull";
    case EventKind::kReferenceApply: return "reference_apply";
    case EventKind::kCounter: return "counter";
    case EventKind::kFaultStraggler: return "fault_straggler";
    case EventKind::kFaultDrop: return "fault_drop";
    case EventKind::kLinkDegraded: return "link_degraded";
    case EventKind::kPipelineCrash: return "pipeline_crash";
    case EventKind::kPipelineRejoin: return "pipeline_rejoin";
    case EventKind::kPolicyBroadcast: return "policy_broadcast";
    case EventKind::kWeightPrediction: return "weight_prediction";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRestore: return "restore";
    case EventKind::kCheckpointCommit: return "checkpoint_commit";
  }
  return "?";
}

const char* to_string(CounterId id) {
  switch (id) {
    case CounterId::kNone: return "none";
    case CounterId::kUtilization: return "utilization";
    case CounterId::kQueueDepth: return "queue_depth";
    case CounterId::kAlivePipelines: return "alive_pipelines";
    case CounterId::kRecvRetry: return "recv_retry";
    case CounterId::kSyncLag: return "sync_lag";
    case CounterId::kFlops: return "flops";
    case CounterId::kParkCount: return "parks";
    case CounterId::kSpinCount: return "spins";
    case CounterId::kSyncBatch: return "sync_batch";
    case CounterId::kSyncBytes: return "sync_bytes";
    case CounterId::kSyncBytesRaw: return "sync_bytes_raw";
  }
  return "?";
}

bool is_compute(EventKind kind) {
  return kind == EventKind::kForward || kind == EventKind::kBackward ||
         kind == EventKind::kUpdate;
}

bool is_comm(EventKind kind) {
  return kind == EventKind::kCommActivation ||
         kind == EventKind::kCommGradient ||
         kind == EventKind::kCommAllReduce;
}

bool is_wait(EventKind kind) {
  return kind == EventKind::kWaitComm || kind == EventKind::kWaitBubble;
}

bool is_fault(EventKind kind) {
  return kind == EventKind::kFaultStraggler ||
         kind == EventKind::kFaultDrop || kind == EventKind::kLinkDegraded ||
         kind == EventKind::kPipelineCrash ||
         kind == EventKind::kPipelineRejoin;
}

bool operator==(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.counter == b.counter &&
         a.pipeline == b.pipeline && a.stage == b.stage &&
         a.batch == b.batch && a.micro_batch == b.micro_batch &&
         a.t_begin == b.t_begin && a.t_end == b.t_end && a.bytes == b.bytes &&
         a.value == b.value;
}

TraceBuffer* Tracer::create_buffer() {
  common::MutexLock lock(mutex_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  return buffers_.back().get();
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> merged;
  {
    common::MutexLock lock(mutex_);
    for (const auto& buf : buffers_) {
      common::MutexLock buf_lock(buf->mutex_);
      merged.insert(merged.end(), buf->events_.begin(), buf->events_.end());
    }
  }
  // Stable: ties keep (buffer creation, insertion) order, so a deterministic
  // execution collects a bit-identical trace every time.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t_begin < b.t_begin;
                   });
  return merged;
}

void Tracer::clear() {
  common::MutexLock lock(mutex_);
  for (const auto& buf : buffers_) {
    common::MutexLock buf_lock(buf->mutex_);
    buf->events_.clear();
  }
}

std::size_t Tracer::num_buffers() const {
  common::MutexLock lock(mutex_);
  return buffers_.size();
}

}  // namespace avgpipe::trace
