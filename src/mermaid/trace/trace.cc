#include "mermaid/trace/trace.h"

namespace mermaid::trace {
namespace {

// Bindings outlive their protocol exchange only briefly; a small FIFO bound
// keeps the map from growing with run length.
constexpr std::size_t kMaxBindings = 8192;

}  // namespace

const char* KindName(EventKind k) {
  switch (k) {
    case EventKind::kProcSpawn: return "ProcSpawn";
    case EventKind::kFaultStart: return "FaultStart";
    case EventKind::kFaultEnd: return "FaultEnd";
    case EventKind::kManagerGrant: return "ManagerGrant";
    case EventKind::kManagerForward: return "ManagerForward";
    case EventKind::kManagerCommit: return "ManagerCommit";
    case EventKind::kManagerRevoke: return "ManagerRevoke";
    case EventKind::kOwnerServe: return "OwnerServe";
    case EventKind::kInstall: return "Install";
    case EventKind::kInvalidateSend: return "InvalidateSend";
    case EventKind::kInvalidateRecv: return "InvalidateRecv";
    case EventKind::kConvert: return "Convert";
    case EventKind::kPacketSend: return "PacketSend";
    case EventKind::kPacketDrop: return "PacketDrop";
    case EventKind::kMsgSend: return "MsgSend";
    case EventKind::kMsgDelivered: return "MsgDelivered";
    case EventKind::kReassemblyExpired: return "ReassemblyExpired";
    case EventKind::kRetransmit: return "Retransmit";
    case EventKind::kCallTimeout: return "CallTimeout";
    case EventKind::kSyncOp: return "SyncOp";
    case EventKind::kRecoveryStart: return "RecoveryStart";
    case EventKind::kRecoveryQuery: return "RecoveryQuery";
    case EventKind::kRecoveryRebuild: return "RecoveryRebuild";
    case EventKind::kRecoveryLost: return "RecoveryLost";
    case EventKind::kRecoveryDone: return "RecoveryDone";
    case EventKind::kRecoveryDemote: return "RecoveryDemote";
    case EventKind::kOwnerLost: return "OwnerLost";
    case EventKind::kTwinCreate: return "TwinCreate";
    case EventKind::kDiffFlush: return "DiffFlush";
    case EventKind::kWriteNotice: return "WriteNotice";
  }
  return "Unknown";
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t Tracer::Record(EventKind kind, std::uint16_t host, SimTime at,
                             std::uint32_t page, std::uint64_t op,
                             std::uint64_t parent, std::int64_t a0,
                             std::int64_t a1) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  Event ev;
  ev.id = next_id_++;
  ev.parent = parent;
  ev.at = at;
  ev.host = host;
  ev.kind = kind;
  ev.page = page;
  ev.op = op;
  ev.a0 = a0;
  ev.a1 = a1;
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(ev);
  return ev.id;
}

void Tracer::Bind(const CausalKey& key, std::uint64_t event) {
  if (!enabled() || event == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = bindings_.insert_or_assign(key, event);
  (void)it;
  if (inserted) {
    binding_order_.push_back(key);
    while (binding_order_.size() > kMaxBindings) {
      bindings_.erase(binding_order_.front());
      binding_order_.pop_front();
    }
  }
}

std::uint64_t Tracer::Parent(const CausalKey& key) const {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = bindings_.find(key);
  return it == bindings_.end() ? 0 : it->second;
}

std::vector<Event> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

std::uint64_t Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_ - 1;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  bindings_.clear();
  binding_order_.clear();
  dropped_ = 0;
  next_id_ = 1;  // run-local ids: a cleared tracer starts a fresh run
}

}  // namespace mermaid::trace
